"""Contour quadrature and the scalar integrand factors.

All contour integrals in this package are written with the measure
``dz / (2 pi i)`` absorbed into the quadrature weights, so that a contour
integral is evaluated as ``sum(weights * f(nodes))``.

Two contour shapes are used:

* counterclockwise circles (trapezoidal rule — exponentially accurate for
  integrands analytic in an annulus around the circle), and
* upward wedges: two rays from one point of the real axis, mirror images
  across it (composite Gauss-Legendre panels on each ray, truncated at a
  length the caller chooses from the decay of the integrand).

The scalar factors are evaluated in log space and exponentiated once per
kernel entry, which keeps intermediate magnitudes representable even when
individual factors would overflow:

    gstar(w | n, m, a) = w^n (1-w)^(a+m) (1 - w/(1-q))^(-m),
    g(w | n, m, a)     = gstar(w | n, m, a) / gstar(w_c | n, m, a),
    script_g(w | t, x, xi) = exp(t w^3/3 + x t^(2/3) w^2 - xi t^(1/3) w),

with ``w_c = 1 - sqrt(q)`` the double critical point of ``gstar``.  The
exponents are integers, so principal-branch logarithms exponentiate to the
exact single-valued product.

The module also provides the Airy function ``Ai`` and the Airy kernel
``K_Ai(a, b) = int_0^inf Ai(a+s) Ai(b+s) ds``.  ``Ai`` is the Maclaurin
series on ``[-5, 2]``; right of it, one fixed Gauss-Legendre rule on the
steepest-descent path through the saddle ``sqrt(s)``, where the integrand
is real and Gaussian-like; left of it, saddle-point contour quadrature.
The switch sits at 2 and not at 5 on the right, because the series loses
relative accuracy to cancellation as ``Ai`` decays (about 4e-10 of
``Ai(5)``), while the steepest-descent rule keeps about 1e-14 relative
from 2 on.
``Ai'`` comes from the same pass: the series differentiated term by term
in the same loop, or the same path samples times the factor ``-z``.  The
kernel is evaluated in its closed form
``(Ai(a) Ai'(b) - Ai'(a) Ai(b)) / (a - b)``, with ``Ai'(a)^2 - a Ai(a)^2``
where ``a = b`` (Tracy & Widom 1994).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "Contour",
    "gauss_legendre",
    "composite_gl",
    "circle",
    "wedge",
    "log_g",
    "log_script_g",
    "airy_ai",
    "airy_kernel_matrix",
]


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Quadrature nodes and weights; weights absorb ``dz / (2 pi i)``."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    def integrate(self, values: np.ndarray) -> complex:
        """Contour integral of a function sampled at ``self.nodes``."""
        return complex(np.sum(self.weights * values))


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[a, b]``."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_gl(
    a: float, b: float, n: int, panel_size: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ~``n`` nodes split into panels."""
    panels = max(1, round(n / panel_size))
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(lo, hi, panel_size)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def circle(center: complex, radius: float, n: int) -> Contour:
    """Counterclockwise circle, trapezoidal rule, nodes offset off-axis."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    nodes = center + radius * np.exp(1j * theta)
    weights = radius * np.exp(1j * theta) / n
    return Contour(nodes=nodes, weights=weights)


def wedge(anchor: float, angle: float, length: float, panels: int, panel_size: int = 12) -> Contour:
    """Upward wedge with vertex ``anchor``: rays at ``-angle`` (inward), then ``angle``.

    ``angle`` in ``(0, pi)`` is measured from the positive real axis, and
    each ray carries ``panels`` Gauss-Legendre panels on ``[0, length]``.
    The first half of the nodes is the lower ray from its far end inward,
    the second half their conjugates in reverse order, so ``nodes[::-1] ==
    nodes.conj()`` and ``weights[::-1] == weights.conj()``.
    """
    r, w = composite_gl(0.0, length, panels * panel_size, panel_size)
    ray = cmath.exp(1j * angle)
    upper = anchor + ray * r
    wu = ray * w / (2j * np.pi)
    return Contour(nodes=np.concatenate([upper[::-1].conj(), upper]),
                   weights=np.concatenate([wu[::-1].conj(), wu]))


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy matrix ``1 / (a_i - b_j)`` coupling the nodes of two contours.

    The reciprocal is taken in place, which avoids a second matrix-sized
    allocation and gives the same values as ``1.0 / (a[:, None] - b)``.
    """
    out = np.subtract.outer(a, b)
    return np.divide(1.0, out, out=out)


def _take(cache: dict, uses: dict, key, make: Callable[[Hashable], np.ndarray]) -> np.ndarray:
    """``make(key)`` on its first use; kept in ``cache`` until its last of ``uses[key]``."""
    mat = cache.pop(key, None)
    if mat is None:
        mat = make(key)
    uses[key] -= 1
    if uses[key]:
        cache[key] = mat
    return mat


class _Chain(NamedTuple):
    """An iterated contour integral ``rows @ couplings @ columns / sign``.

    ``links`` is a tuple of links whose first entry is the key of their
    contour, ``cols`` the hashable key of the column factors and ``sign``
    the scalar the product is divided by; see ``_walk_chains``.
    """

    links: tuple
    cols: Hashable
    sign: float


def _walk_chains(
    jobs: Sequence[_Chain],
    nodes: Callable[[Hashable], np.ndarray],
    rows: Callable[[Hashable], np.ndarray],
    scale: Callable[[Hashable], np.ndarray | None],
    cols: Callable[[Hashable], np.ndarray],
) -> dict:
    """``{job: 2 Re(product @ cols(job.cols)) / job.sign}`` for real chains of Cauchy couplings.

    Each job is a ``_Chain``; the first entry of every link is the key of
    its contour.  Every contour's nodes come in conjugate pairs (an even
    count, none real), and ``nodes(key)`` gives one node of each pair.
    ``rows(links[0])`` are row factors on the first contour; every further
    link multiplies by the Cauchy matrix from the previous contour to its
    own, then scales the columns by ``scale(link)`` (``None``: no scaling).
    ``rows``, ``scale`` and ``cols`` satisfy ``f(conj z) = conj f(z)``, so
    every chain is real.  A coupling from ``a`` to ``b`` is the ``len(a) x
    2 len(b)`` Cauchy matrix onto ``b`` and ``conj(b)``; a product ``P``
    with it folds to ``P[:, :h] + conj(P[:, h:])``, the product over the
    full rule at the kept nodes.  This exact algebra halves every coupling,
    product and factor.  A job's value is taken once its product exists.

    The jobs are walked together, link by link.  At each depth the distinct
    prefixes are grouped by the ordered pair of contours they cross; each
    pair's Cauchy matrix is formed once, and every distinct prefix that
    crosses it is multiplied by it once.  A Cauchy matrix or a column factor
    is formed on its first use and dropped after its last, and a prefix once
    its extensions and its jobs are done, so besides the current depth's
    prefixes only the couplings and column factors still ahead stay alive.
    The walk follows the jobs' order, so reruns compute and sum alike.
    """
    jobs = list(dict.fromkeys(jobs))
    steps: list[dict] = []  # steps[d]: the distinct prefixes of d + 2 links
    ends: dict = {}
    for job in jobs:
        links = job.links
        ends.setdefault(links, []).append(job)
        for d in range(len(links) - 1):
            if d == len(steps):
                steps.append({})
            steps[d][links[:d + 2]] = None

    def pair(prefix: tuple) -> tuple:
        return prefix[-2][0], prefix[-1][0]

    uses: dict = {}
    for step in steps:
        for pr in dict.fromkeys(pair(prefix) for prefix in step):
            uses[pr] = uses.get(pr, 0) + 1
    col_uses: dict = {}
    for job in jobs:
        col_uses[job.cols] = col_uses.get(job.cols, 0) + 1
    couplings: dict = {}
    col_factors: dict = {}

    def cauchy(pr: tuple) -> np.ndarray:
        b = nodes(pr[1])
        return _cauchy(nodes(pr[0]), np.concatenate([b, b.conj()]))

    def times(prefix: np.ndarray, mat: np.ndarray) -> np.ndarray:
        part = prefix @ mat
        h = part.shape[1] // 2
        folded = part[:, h:].conj()
        folded += part[:, :h]
        return folded

    out: dict = {}

    def settle(level: dict, step: dict) -> dict:
        """Take the jobs that end at this depth; keep what the next extends."""
        for prefix, mat in level.items():
            for job in ends.get(prefix, ()):
                value = mat @ _take(col_factors, col_uses, job.cols, cols)
                out[job] = 2.0 * value.real / job.sign
        parents = dict.fromkeys(prefix[:-1] for prefix in step)
        return {prefix: mat for prefix, mat in level.items() if prefix in parents}

    level = {(link,): rows(link) for link in dict.fromkeys(job.links[0] for job in jobs)}
    for step in steps:
        level = settle(level, step)
        groups: dict = {}
        for prefix in step:
            groups.setdefault(pair(prefix), {}).setdefault(prefix[:-1], []).append(prefix)
        pending: dict = {}
        for by_parent in groups.values():
            for parent in by_parent:
                pending[parent] = pending.get(parent, 0) + 1
        nxt = {}
        for pr, by_parent in groups.items():
            mat = _take(couplings, uses, pr, cauchy)
            for parent, prefixes in by_parent.items():
                part = times(level[parent], mat)
                for prefix in prefixes:
                    factors = scale(prefix[-1])
                    nxt[prefix] = part if factors is None else part * factors[None, :]
                pending[parent] -= 1
                if not pending[parent]:
                    del level[parent]
            del mat
        level = nxt
    settle(level, {})
    return out


# ---------------------------------------------------------------------------
# integrand factors (log space)
# ---------------------------------------------------------------------------

def log_gstar(w, n: int, m: int, a: int, q: float):
    """``log gstar(w | n, m, a)`` with principal branches (exponents are ints)."""
    w = np.asarray(w, dtype=complex)
    return (
        n * np.log(w)
        + (a + m) * np.log(1.0 - w)
        - m * np.log(1.0 - w / (1.0 - q))
    )


def gstar_at(w, n: int, m: int, a: int, q: float):
    """``gstar(w | n, m, a)`` (safe only when the log stays moderate)."""
    return np.exp(log_gstar(w, n, m, a, q))


def log_g(w, n, m, a, q: float):
    """Log of the critically normalized factor ``g = gstar(w)/gstar(w_c)``.

    ``n``, ``m`` and ``a`` may be arrays of integer exponents of one
    length; the result then has one row per exponent and one column per
    entry of ``w``.
    """
    sq = math.sqrt(q)
    w = np.asarray(w, dtype=complex)
    const = np.multiply.outer(a + m, np.log(1.0 - w) - math.log(sq)) - np.multiply.outer(
        m, np.log(1.0 - w / (1.0 - q)) - math.log(sq / (1.0 + sq))
    )
    return np.multiply.outer(n, np.log(w) - math.log(1.0 - sq)) + const


def log_script_g(w, t: float, x: float, xi: float):
    """Log of the scaled integrand ``exp(t w^3/3 + x t^(2/3) w^2 - xi t^(1/3) w)``."""
    w = np.asarray(w, dtype=complex)
    t13 = t ** (1.0 / 3.0)
    return t * w ** 3 / 3.0 + x * t13 ** 2 * w ** 2 - xi * t13 * w


# ---------------------------------------------------------------------------
# Airy function and Airy kernel
# ---------------------------------------------------------------------------

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _airy_series(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maclaurin series of ``(Ai, Ai')``, used on ``[-5, 2]``.

    Its terms reach about 1e3 near ``|s| = 5``, so the sum keeps about 1e-13
    absolute accuracy there but only about 4e-10 relative accuracy of the
    decaying ``Ai(5)``; at 2 it keeps about 5e-15 relative.

    ``Ai = Ai(0) f + Ai'(0) g`` with ``f = 1 + s^3/6 + ...`` and
    ``g = s + s^4/12 + ...``.  Each step multiplies a term by
    ``s^3 / ((n+3)(n+2))`` (``f``) or ``s^3 / ((n+4)(n+3))`` (``g``); the
    derivative of the new term is the old term times ``s^2 / (n+2)``
    (``f``) or ``s^2 / (n+3)`` (``g``), which needs no division by ``s``,
    so ``f'`` and ``g'`` accumulate in the same loop.
    """
    tf = np.ones_like(s)
    tg = s.copy()
    s2 = s ** 2
    s3 = s ** 3
    f, g = np.ones_like(s), s.copy()
    fp, gp = np.zeros_like(s), np.ones_like(s)
    for k in range(40):
        n = 3 * k
        fp += tf * s2 / (n + 2)
        gp += tg * s2 / (n + 3)
        tf = tf * s3 / ((n + 3) * (n + 2))
        tg = tg * s3 / ((n + 4) * (n + 3))
        f += tf
        g += tg
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


_AIRY_CHUNK = 1024
_AIRY_NODES = 32  # Gauss-Legendre nodes of the right tail


def _airy_right(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steepest-descent path through the saddle ``sqrt(s)``, for s > 2.

    ``Ai(s) = (1/2 pi i) int exp(z^3/3 - s z) dz``.  On the path
    ``z = sqrt(s) (u + iv)``, ``u = sqrt(1 + v^2/3)``, the phase is constant
    and the integrand real: with ``r = s^(3/2)``,

        Ai(s)  =  (sqrt(s)/pi) e^(-2r/3) int_0^inf exp(-r v^2 h(v)) dv,
        Ai'(s) = -(s/pi) e^(-2r/3) int_0^inf exp(-r v^2 h(v)) (u + v^2/(3u)) dv,

    ``h(v) = 2/(9(u+1)) + 8u/9``, where ``u - 1 = v^2/(3(u+1))`` keeps ``h``
    free of cancellation near ``v = 0``.  Since ``h >= 1``, the integrand
    is below ``e^-48`` past ``v = sqrt(48/r)``, and one fixed Gauss-Legendre
    rule on ``[0, sqrt(48/r)]`` serves every point, within about 5e-14
    relative on ``(2, 60]``.  Elements are processed
    in chunks, so large batches stay within memory.
    """
    tau, weights = gauss_legendre(0.0, 1.0, _AIRY_NODES)
    ai, aip = np.empty_like(s), np.empty_like(s)
    for lo in range(0, len(s), _AIRY_CHUNK):
        sv = s[lo : lo + _AIRY_CHUNK]
        r = sv ** 1.5
        vmax = np.sqrt(48.0 / r)
        v2 = (vmax[:, None] * tau) ** 2
        u = np.sqrt(1.0 + v2 / 3.0)
        vals = np.exp(-r[:, None] * v2 * (2.0 / (9.0 * (u + 1.0)) + 8.0 * u / 9.0)) * weights
        scale = np.exp(-2.0 * r / 3.0) * vmax / math.pi
        ai[lo : lo + _AIRY_CHUNK] = np.sqrt(sv) * scale * vals.sum(axis=1)
        aip[lo : lo + _AIRY_CHUNK] = -sv * scale * (vals * (u + v2 / (3.0 * u))).sum(axis=1)
    return ai, aip


def _airy_left(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Saddle-point contour through ``+-i sqrt(|s|)``, for s < -5.

    Chunked like :func:`_airy_right`; node counts follow the largest
    oscillation in the chunk.  For ``Ai'`` the factor ``-z`` turns the
    segment's ``cos(phase)`` into ``y sin(phase)`` (the odd part cancels).
    """
    ai, aip = np.empty_like(s), np.empty_like(s)
    for lo in range(0, len(s), _AIRY_CHUNK):
        sv = s[lo : lo + _AIRY_CHUNK]
        r = np.sqrt(-sv)
        # imaginary-axis segment between the saddles: phase -y^3/3 + |s| y
        osc_b = (2.0 / 3.0) * float(np.max(r)) ** 3
        nb = int(max(60, 10 * osc_b / math.pi))
        tau, wy = composite_gl(0.0, 1.0, nb, panel_size=10)
        y = r[:, None] * tau[None, :]
        phase = -(y ** 3) / 3.0 - sv[:, None] * y
        seg_b = r * ((np.cos(phase) * wy).sum(axis=1))
        seg_bp = r * ((y * np.sin(phase) * wy).sum(axis=1))
        # descent ray from the upper saddle in direction exp(i pi/4)
        hw = 7.0 / np.sqrt(r)
        nc = int(max(80, 14 * float(np.max(r))))
        tau_c, wt = composite_gl(0.0, 1.0, nc, panel_size=10)
        z = 1j * r[:, None] + (hw[:, None] * tau_c[None, :]) * np.exp(1j * np.pi / 4.0)
        f = z ** 3 / 3.0 - sv[:, None] * z
        vals = np.exp(f)
        seg_c = np.exp(1j * np.pi / 4.0) * hw * ((vals * wt).sum(axis=1))
        vals *= -z
        seg_cp = np.exp(1j * np.pi / 4.0) * hw * ((vals * wt).sum(axis=1))
        ai[lo : lo + _AIRY_CHUNK] = (seg_b + seg_c.imag) / math.pi
        aip[lo : lo + _AIRY_CHUNK] = (seg_bp + seg_cp.imag) / math.pi
    return ai, aip


def _airy(s) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` on a real array, flattened: series on ``[-5, 2]``."""
    flat = np.atleast_1d(np.asarray(s, dtype=float)).ravel().copy()
    if np.any(flat < -60.0):
        raise ValueError("airy_ai supports arguments >= -60")
    ai, aip = np.empty_like(flat), np.empty_like(flat)
    for part, rule in (
        ((flat >= -5.0) & (flat <= 2.0), _airy_series),
        (flat > 2.0, _airy_right),
        (flat < -5.0, _airy_left),
    ):
        if part.any():
            ai[part], aip[part] = rule(flat[part])
    return ai, aip


def airy_ai(s) -> np.ndarray:
    """Airy function ``Ai(s)`` for real array input.

    Series on ``[-5, 2]``; saddle-point contour quadrature outside.
    Absolute accuracy ~1e-13 on ``[-60, inf)``; arguments below -60 raise.
    """
    arr = np.asarray(s, dtype=float)
    res = _airy(arr)[0].reshape(np.atleast_1d(arr).shape)
    return float(res[0]) if arr.ndim == 0 else res


def airy_kernel_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Airy kernel ``K_Ai(a_i, b_j) = int_0^inf Ai(a_i+s) Ai(b_j+s) ds``.

    Evaluated in closed form (Tracy & Widom 1994)::

        K_Ai(a, b) = (Ai(a) Ai'(b) - Ai'(a) Ai(b)) / (a - b),   a != b,
        K_Ai(a, a) = Ai'(a)^2 - a Ai(a)^2,

    so a matrix costs one evaluation of ``(Ai, Ai')`` per point, and one
    per point of ``a`` alone when ``b is a``.  Entries with ``a_i == b_j``
    take the second form wherever they sit in the matrix.
    """
    ai_a, aip_a = _airy(a)
    ai_b, aip_b = (ai_a, aip_a) if b is a else _airy(b)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = np.subtract.outer(a, b)
    same = diff == 0.0
    kern = np.outer(ai_a, aip_b) - np.outer(aip_a, ai_b)
    np.divide(kern, diff, out=kern, where=~same)
    i, _ = np.nonzero(same)
    kern[same] = aip_a[i] ** 2 - a[i] * ai_a[i] ** 2
    return kern
