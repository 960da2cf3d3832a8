"""Contour quadrature and the scalar integrand factors.

All contour integrals in this package are written with the measure
``dz / (2 pi i)`` absorbed into the quadrature weights, so that a contour
integral is evaluated as ``sum(weights * f(nodes))``.

Two contour shapes are used:

* counterclockwise circles (trapezoidal rule — exponentially accurate for
  integrands analytic in an annulus around the circle), and
* upward vertical lines (composite Gauss-Legendre panels on a finite
  symmetric window chosen by the caller from the Gaussian decay of the
  integrand).

The scalar factors are evaluated in log space and exponentiated once per
kernel entry, which keeps intermediate magnitudes representable even when
individual factors would overflow:

    gstar(w | n, m, a) = w^n (1-w)^(a+m) (1 - w/(1-q))^(-m),
    g(w | n, m, a)     = gstar(w | n, m, a) / gstar(w_c | n, m, a),
    script_g(w | t, x, xi) = exp(t w^3/3 + x t^(2/3) w^2 - xi t^(1/3) w),

with ``w_c = 1 - sqrt(q)`` the double critical point of ``gstar``.  The
exponents are integers, so principal-branch logarithms exponentiate to the
exact single-valued product.

The module also provides the Airy function ``Ai`` (series for moderate
arguments, saddle-point contour quadrature outside; a private ``Ai'`` takes
the same series term by term and the same contours with an extra factor
``-z``) and the Airy kernel ``K_Ai(a, b) = int_0^inf Ai(a+s) Ai(b+s) ds``
in its closed form ``(Ai(a) Ai'(b) - Ai'(a) Ai(b)) / (a - b)``, with
``Ai'(a)^2 - a Ai(a)^2`` where ``a = b`` (Tracy & Widom 1994).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Contour",
    "gauss_legendre",
    "composite_gl",
    "circle",
    "vline",
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


def vline(anchor: float, halfwidth: float, n: int, panel_size: int = 8) -> Contour:
    """Upward vertical line through ``anchor`` truncated at ``+-i*halfwidth``."""
    y, w = composite_gl(-halfwidth, halfwidth, n, panel_size)
    return Contour(nodes=anchor + 1j * y, weights=w / (2.0 * np.pi))


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


def _walk_chains(
    jobs: Sequence,
    nodes: Callable[[Hashable], np.ndarray],
    rows: Callable[[Hashable], np.ndarray],
    scale: Callable[[Hashable], np.ndarray | None],
    cols: Callable[[Hashable], np.ndarray],
) -> dict:
    """``{job: (product @ cols(job.cols)) / job.sign}`` for chains of Cauchy couplings.

    Each job is hashable and has a tuple ``links``, a hashable ``cols`` key
    and a scalar ``sign``; the first entry of every link is the key of its
    contour.  ``rows(links[0])`` are row factors on the first contour; every
    further link multiplies by the Cauchy matrix from the previous contour's
    ``nodes`` to its own, then scales the columns by ``scale(link)``
    (``None``: no scaling).  A job's value is taken as soon as its product
    exists.

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
        return _cauchy(nodes(pr[0]), nodes(pr[1]))

    out: dict = {}

    def settle(level: dict, step: dict) -> dict:
        """Take the jobs that end at this depth; keep what the next extends."""
        for prefix, mat in level.items():
            for job in ends.get(prefix, ()):
                out[job] = (mat @ _take(col_factors, col_uses, job.cols, cols)) / job.sign
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
                part = level[parent] @ mat
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


def log_g(w, n, m: int, a: int, q: float):
    """Log of the critically normalized factor ``g = gstar(w)/gstar(w_c)``.

    ``n`` may be an array of integer exponents; the result then has one
    row per exponent and one column per entry of ``w``.
    """
    sq = math.sqrt(q)
    w = np.asarray(w, dtype=complex)
    const = (a + m) * (np.log(1.0 - w) - math.log(sq)) - m * (
        np.log(1.0 - w / (1.0 - q)) - math.log(sq / (1.0 + sq))
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


def _airy_series(s: np.ndarray, prime: bool) -> np.ndarray:
    """Maclaurin series of Ai (or of Ai', term by term), reliable for |s| <= 5.

    ``Ai = Ai(0) f + Ai'(0) g`` with ``f = 1 + s^3/6 + ...`` and
    ``g = s + s^4/12 + ...``.  Each step multiplies a term by
    ``s^3 / ((n+3)(n+2))`` (``f``) or ``s^3 / ((n+4)(n+3))`` (``g``); the
    derivative of the new term is the old term times ``s^2 / (n+2)``
    (``f``) or ``s^2 / (n+3)`` (``g``), which needs no division by ``s``.
    """
    tf = np.ones_like(s)
    tg = s.copy()
    s3 = s ** 3
    if prime:
        f = np.zeros_like(s)
        g = np.ones_like(s)
        s2 = s ** 2
        for k in range(40):
            n = 3 * k
            f += tf * s2 / (n + 2)
            g += tg * s2 / (n + 3)
            tf = tf * s3 / ((n + 3) * (n + 2))
            tg = tg * s3 / ((n + 4) * (n + 3))
        return _AI0 * f + _AIP0 * g
    f = np.ones_like(s)
    g = s.copy()
    for k in range(40):
        n = 3 * k
        tf = tf * s3 / ((n + 3) * (n + 2))
        tg = tg * s3 / ((n + 4) * (n + 3))
        f += tf
        g += tg
    return _AI0 * f + _AIP0 * g


_AIRY_CHUNK = 1024


def _airy_right(s: np.ndarray, prime: bool) -> np.ndarray:
    """Vertical-line quadrature through the saddle ``sqrt(s)``, for s > 5.

    ``Ai(s) = (1/2 pi i) int exp(z^3/3 - s z) dz``; ``Ai'`` carries the
    extra factor ``-z`` inside the integral.  Elements are processed in
    chunks on a shared normalized grid (scaled per element), so large
    batches stay vectorized.
    """
    out = np.empty_like(s)
    for lo in range(0, len(s), _AIRY_CHUNK):
        sv = s[lo : lo + _AIRY_CHUNK]
        d = np.sqrt(sv)
        hw = 7.0 / sv ** 0.25
        osc = float(np.max(hw ** 3)) / 3.0
        n = int(max(80, 12 * osc))
        tau, w = composite_gl(0.0, 1.0, n, panel_size=10)
        z = d[:, None] + 1j * (hw[:, None] * tau[None, :])
        f = z ** 3 / 3.0 - sv[:, None] * z
        vals = np.exp(f)
        if prime:
            vals *= -z
        out[lo : lo + _AIRY_CHUNK] = hw * ((vals.real * w).sum(axis=1)) / math.pi
    return out


def _airy_left(s: np.ndarray, prime: bool) -> np.ndarray:
    """Saddle-point contour through ``+-i sqrt(|s|)``, for s < -5.

    Chunked like :func:`_airy_right`; node counts follow the largest
    oscillation in the chunk.  For ``Ai'`` the factor ``-z`` turns the
    segment's ``cos(phase)`` into ``y sin(phase)`` (the odd part cancels).
    """
    out = np.empty_like(s)
    for lo in range(0, len(s), _AIRY_CHUNK):
        sv = s[lo : lo + _AIRY_CHUNK]
        r = np.sqrt(-sv)
        # imaginary-axis segment between the saddles: phase -y^3/3 + |s| y
        osc_b = (2.0 / 3.0) * float(np.max(r)) ** 3
        nb = int(max(60, 10 * osc_b / math.pi))
        tau, wy = composite_gl(0.0, 1.0, nb, panel_size=10)
        y = r[:, None] * tau[None, :]
        phase = -(y ** 3) / 3.0 - sv[:, None] * y
        along = y * np.sin(phase) if prime else np.cos(phase)
        seg_b = r * ((along * wy).sum(axis=1))
        # descent ray from the upper saddle in direction exp(i pi/4)
        hw = 7.0 / np.sqrt(r)
        nc = int(max(80, 14 * float(np.max(r))))
        tau_c, wt = composite_gl(0.0, 1.0, nc, panel_size=10)
        z = 1j * r[:, None] + (hw[:, None] * tau_c[None, :]) * np.exp(1j * np.pi / 4.0)
        f = z ** 3 / 3.0 - sv[:, None] * z
        vals = np.exp(f)
        if prime:
            vals *= -z
        seg_c = np.exp(1j * np.pi / 4.0) * hw * ((vals * wt).sum(axis=1))
        out[lo : lo + _AIRY_CHUNK] = (seg_b + seg_c.imag) / math.pi
    return out


def _airy(s, prime: bool) -> np.ndarray:
    """``Ai`` (or ``Ai'``) on a real array, flattened: series inside ``|s| <= 5``."""
    flat = np.atleast_1d(np.asarray(s, dtype=float)).ravel().copy()
    if np.any(flat < -60.0):
        raise ValueError("airy_ai supports arguments >= -60")
    out = np.empty_like(flat)
    mid = np.abs(flat) <= 5.0
    right = flat > 5.0
    left = flat < -5.0
    if mid.any():
        out[mid] = _airy_series(flat[mid], prime)
    if right.any():
        out[right] = _airy_right(flat[right], prime)
    if left.any():
        out[left] = _airy_left(flat[left], prime)
    return out


def airy_ai(s) -> np.ndarray:
    """Airy function ``Ai(s)`` for real array input.

    Series for ``|s| <= 5``; saddle-point contour quadrature outside.
    Absolute accuracy ~1e-13 on ``[-60, inf)``; arguments below -60 raise.
    """
    arr = np.asarray(s, dtype=float)
    res = _airy(arr, prime=False).reshape(np.atleast_1d(arr).shape)
    return float(res[0]) if arr.ndim == 0 else res


def airy_kernel_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Airy kernel ``K_Ai(a_i, b_j) = int_0^inf Ai(a_i+s) Ai(b_j+s) ds``.

    Evaluated in closed form (Tracy & Widom 1994)::

        K_Ai(a, b) = (Ai(a) Ai'(b) - Ai'(a) Ai(b)) / (a - b),   a != b,
        K_Ai(a, a) = Ai'(a)^2 - a Ai(a)^2,

    so a matrix costs one ``Ai`` and one ``Ai'`` per point.  Entries with
    ``a_i == b_j`` take the second form wherever they sit in the matrix.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ai_a, ai_b = airy_ai(a), airy_ai(b)
    aip_a, aip_b = _airy(a, prime=True), _airy(b, prime=True)
    diff = np.subtract.outer(a, b)
    same = diff == 0.0
    kern = np.outer(ai_a, aip_b) - np.outer(aip_a, ai_b)
    np.divide(kern, diff, out=kern, where=~same)
    i, _ = np.nonzero(same)
    kern[same] = aip_a[i] ** 2 - a[i] * ai_a[i] ** 2
    return kern
