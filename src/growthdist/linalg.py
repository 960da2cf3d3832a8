"""Determinants, Nystrom discretization and the theta-determinant engine.

Fredholm determinants ``det(I + K)`` on a direct sum of half-line L^2
spaces are evaluated by Nystrom's method: Gauss-Legendre nodes per block,
the symmetrized matrix ``I + W^(1/2) K W^(1/2)``, and an LU factorization
with LAPACK partial pivoting.  Results are reproducible across reruns on
one machine with one BLAS thread count.

The finite-size law (``exact``) and its limit (``asymptotic``) share the
private theta-determinant engine.  A route only describes its terms
``(rows, cols, base, poly)``, which add ``poly(theta) * base`` to block
``[rows, cols]`` (every theta-independent diagonal scaling folded into
``base``; ``poly`` a ``params.Laurent`` polynomial, ``{(): 1}`` when there
is no theta), and how they are built at each refinement level.
The engine owns the rest.  ``_refine`` is the one refinement loop.  It
refines two resolutions on their own evidence: the route's (contour or
Nystrom) nodes grow by ``sqrt(2)`` per level (``_refined_count``, on the
route's ``nodes_at`` schedule) until two successive levels agree, from the
first level the route's a-priori error bound leaves unresolved
(``_first_level``), and on each level the theta rule doubles on the same
terms until its tail certifies it.  It rejects an agreed value that is no
probability, and returns a ``FredholmResult``, which both routes return as
it is.
``_pack`` sums a level's bases into one matrix per (block, monomial) once,
before its first theta rule; every base is real.  A theta rule
(``_theta_integral``) is a function of its determinant torus.  Node ``j``
of each circle sits at ``radius * exp(2 pi i j / n)`` (``_ring``), so the
nodes of a rule are the even-indexed nodes of the rule of twice as many,
and a doubled rule computes only its nodes with some odd index, taking the
rest from the coarser torus.  Real bases make ``det(I + F(conj theta))``
the conjugate of ``det(I + F(theta))``, and node ``-j mod n`` the conjugate
of node ``j``, so a rule computes one node of each conjugate pair and fills
in the other by conjugation.  ``_dets`` takes ``det(I + F(theta))`` at the
nodes computed, in chunks of about ``_DET_BATCH_BYTES``, each block by one
product of the chunk's monomial values with its packed matrices and each
chunk by one batched ``lu_det`` call; one FFT of the torus gives the
determinant's Laurent coefficients, real since the torus is conjugate
symmetric, and both the value and the tail are read from them.
``_det_at`` is the one-node grid of a point.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, ConvergenceError, SchemaError
from .integrands import composite_gl

__all__ = [
    "FredholmResult",
    "lu_det",
    "NystromGrid",
    "block_grid",
]


def lu_det(matrix: np.ndarray) -> complex | np.ndarray:
    """Determinant via LU with LAPACK partial pivoting.

    A ``(n, n)`` matrix gives a ``complex``; a ``(..., n, n)`` stack gives
    the array of its determinants, each equal to the single-matrix value.
    """
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    det = np.linalg.det(a)
    return complex(det) if a.ndim == 2 else det


@dataclass(frozen=True)
class NystromGrid:
    """Quadrature grid over ``(+)_{r<p} L^2(-inf,0) (+) L^2(0,inf)``.

    ``nodes``/``weights`` are the concatenated per-block rules and
    ``slices[r-1]`` selects block ``r`` (1-based; blocks ``1..p-1`` live on
    the negative axis, block ``p`` on the positive axis).
    """

    p: int
    nodes: np.ndarray
    weights: np.ndarray
    slices: tuple[slice, ...]

    def __len__(self) -> int:
        return len(self.nodes)


_PANEL = 12  # Gauss-Legendre nodes per panel of a Nystrom block


def block_grid(p: int, extent: float = 12.0, n: int = 48) -> NystromGrid:
    """Gauss-Legendre grid truncating each half-line at ``extent``.

    Each block has ``n`` nodes rounded to whole ``_PANEL``-node panels (at
    least one).
    """
    nodes, weights, slices = [], [], []
    start = 0
    for r in range(1, p + 1):
        lo, hi = (0.0, extent) if r == p else (-extent, 0.0)
        x, w = composite_gl(lo, hi, n, panel_size=_PANEL)
        nodes.append(x)
        weights.append(w)
        slices.append(slice(start, start + len(x)))
        start += len(x)
    return NystromGrid(
        p=p,
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        slices=tuple(slices),
    )


# ---------------------------------------------------------------------------
# theta-determinant engine
# ---------------------------------------------------------------------------

_THETA_NODES = 8  # per circle on the first level: exact for Laurent degrees in [-4, 4)
_THETA_MAX_NODES = 2 ** 16  # cap on the theta nodes of one rule, over all circles
_TAIL_NOISE = 16.0  # Laurent coefficients below this many ulps of max |det| are roundoff
_DET_BATCH_BYTES = 4 * 2 ** 20  # bytes of matrices per batched determinant call


def _check_deadline(deadline: float | None, phase: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError(f"time budget exhausted during {phase}")


def _refined_count(base: int, unit: int, level: int) -> int:
    """Node count of refinement ``level``: ``base`` grown by ``sqrt(2)`` per level.

    Counts are whole multiples of ``unit`` (even contour nodes, or Nystrom
    panels), ``u0 = max(1, round(base / unit))`` of them at level 0 and
    ``max(round(u0 * 2**(level/2)), u0 + level)`` at ``level``.  Even
    levels are exact doublings of level 0; the second term keeps every
    level strictly finer than the one before, where rounding alone would
    repeat a small count and make two levels agree trivially.
    """
    u0 = max(1, round(base / unit))
    return unit * max(round(u0 * 2 ** (level / 2)), u0 + level)


def _pack(terms) -> tuple[list, list]:
    """Sum the terms into one complex matrix per (block, theta monomial).

    Returns ``(exponents, blocks)``: ``exponents[a]`` is the exponent tuple
    of monomial ``a``, and each block is ``(rows, cols, which, packed)``,
    ``packed[i]`` the flattened ``sum_j c_{j,a} B_j`` over the terms on
    ``[rows, cols]``, ``a = which[i]``.  Exact-zero coefficients are dropped.
    A complex base raises ``ValueError``: the theta rules fill half of each
    torus by conjugation, which holds only for real bases.
    """
    index: dict[tuple, int] = {}
    sums: dict[tuple, tuple] = {}
    for rows, cols, base, poly in terms:
        if np.iscomplexobj(base):
            raise ValueError("kernel bases must be real")
        acc = sums.setdefault((rows.start, rows.stop, cols.start, cols.stop), (rows, cols, {}))[2]
        for alpha, c in poly.items():
            if c != 0.0:
                a = index.setdefault(alpha, len(index))
                acc[a] = acc.get(a, 0.0) + c * base
    return list(index), [
        (rows, cols, list(acc), np.array([m.ravel() for m in acc.values()], dtype=complex))
        for rows, cols, acc in sums.values() if acc
    ]


def _dets(size: int, packed, thetas: tuple[np.ndarray, ...], deadline: float | None) -> np.ndarray:
    """``det(I + F(theta))`` at every node of the theta grid ``thetas``.

    ``packed`` is ``_pack(terms)``; ``thetas[i]`` holds component ``i`` of
    every node, all components of one shape, which the result takes (no
    component: one node, shape ``()``).  Per chunk of about
    ``_DET_BATCH_BYTES`` of matrices, a zeroed stack gets its unit
    diagonal, each block adds ``monomials @ packed`` in one matrix
    product, and one batched ``lu_det`` call takes the determinants.
    ``deadline`` is checked before every chunk.  A non-finite determinant
    is returned as it is; the callers raise ``ConvergenceError`` for it.
    """
    exponents, blocks = packed
    torus = thetas[0].shape if thetas else ()
    flat = [theta.ravel() for theta in thetas]
    dets = np.empty(math.prod(torus), dtype=complex)
    chunk = max(1, _DET_BATCH_BYTES // (16 * size * size))
    for lo in range(0, dets.size, chunk):
        _check_deadline(deadline, "theta integration")
        hi = min(lo + chunk, dets.size)
        mats = np.zeros((hi - lo, size, size), dtype=complex)
        mats.reshape(hi - lo, -1)[:, :: size + 1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            monomials = np.ones((hi - lo, len(exponents)), dtype=complex)
            for a, alpha in enumerate(exponents):
                for theta, power in zip(flat, alpha):
                    monomials[:, a] *= theta[lo:hi] ** power
            for rows, cols, which, mat in blocks:
                shape = (hi - lo, rows.stop - rows.start, cols.stop - cols.start)
                mats[:, rows, cols] += (monomials[:, which] @ mat).reshape(shape)
            dets[lo:hi] = lu_det(mats)
    return dets.reshape(torus)


def _det_at(size: int, terms, p: int, thetas) -> complex:
    """``det(I + F(theta))`` of the terms at the single point ``theta``, a one-node grid.

    ``theta`` must have ``p - 1`` finite, non-zero components (else ``SchemaError``).
    """
    if len(thetas) != p - 1:
        raise SchemaError(f"theta must have {p - 1} components, got {len(thetas)}")
    if not (np.all(np.isfinite(thetas)) and np.all(np.asarray(thetas) != 0)):
        raise SchemaError(f"theta components must be finite and non-zero, got {tuple(thetas)}")
    node = tuple(np.full((1,) * len(thetas), th, dtype=complex) for th in thetas)
    det = complex(_dets(size, _pack(terms), node, None).ravel()[0])
    if not cmath.isfinite(det):
        raise ConvergenceError(f"non-finite determinant {det}")
    return det


def _ring(radius: float, n: int) -> np.ndarray:
    """The ``n`` (even) theta nodes ``radius * exp(2 pi i j / n)`` of one circle.

    Node ``n - j`` is the exact conjugate of node ``j``, and nodes ``0`` and
    ``n/2`` are the real ``radius`` and ``-radius``.
    """
    upper = radius * np.exp(2j * np.pi * np.arange(1, n // 2) / n)
    return np.concatenate([[radius], upper, [-radius], upper[::-1].conj()])


def _theta_integral(
    size: int, packed, p: int, radius: float, n_theta: int, deadline: float | None,
    coarse: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """``(value, tail, dets)`` of the ``(p-1)``-fold theta rule on ``n_theta`` (even) nodes per circle.

    ``packed`` is ``_pack(terms)`` and ``p >= 2``.  ``dets`` is the
    determinant torus, node ``j`` of each circle at ``radius * exp(2 pi i
    j / n_theta)`` (``_ring``).  ``coarse``, the torus of the rule on
    ``n_theta / 2`` nodes of the same terms, holds its nodes with every
    index even; then only the nodes with some odd index are computed.
    Torus node ``-j mod n_theta`` is the conjugate of node ``j``, and so is
    its determinant (``_pack``'s bases are real), so ``_dets`` takes one
    node of each pair, the one first in C order, and conjugation fills in
    the other: 5 of 8 nodes at ``p = 2``, 34 of 64 at ``p = 3``.

    The torus goes through one FFT, whose coefficient ``k`` (over the torus
    size) is the Laurent coefficient ``c_k radius**k`` of the determinant,
    every degree outside ``[-n_theta/2, n_theta/2)`` aliased onto one inside
    it (Trefethen & Weideman, SIAM Rev. 56, 2014).  A conjugate-symmetric
    torus has real coefficients, and their real parts are taken.  The
    integral of ``det(I+F(theta)) / prod(theta_i - 1)`` is the sum of the
    coefficients of every degree ``>= 0``, so ``value`` sums the
    coefficients with every ``k_i`` in ``[0, n_theta/2)``: the truncated
    trapezoid rule, exact at any radius ``> 1`` once no degree lies outside
    the band.

    ``tail`` bounds the rule's error, a sum of aliased coefficients (with
    weights at most 1) and of missed ones of degree ``>= n_theta/2`` (with
    ``radius**-k < 1``): once the outer half of the band, every ``k`` with
    some ``|k_i| >= n_theta/4``, has decayed, what lies beyond it is smaller
    still.  It is the sum of the outer half's magnitudes that stand above
    roundoff, ``_TAIL_NOISE`` ulps of the largest ``|det|``; 0 means no
    finer rule can resolve more.
    """
    ring = _ring(radius, n_theta)
    torus = (n_theta,) * (p - 1)
    index = np.indices(torus).reshape(p - 1, -1)
    mirror = np.ravel_multi_index(-index % n_theta, torus)
    keep = np.arange(mirror.size) <= mirror
    dets = np.empty(mirror.size, dtype=complex)
    if coarse is not None:
        keep &= (index % 2).any(axis=0)
        dets.reshape(torus)[(slice(None, None, 2),) * (p - 1)] = coarse
    nodes = np.flatnonzero(keep)
    computed = _dets(size, packed, tuple(ring[axis[nodes]] for axis in index), deadline)
    bad = np.flatnonzero(~np.isfinite(computed))
    if bad.size:
        node = tuple(int(j) for j in index[:, nodes[bad[0]]])
        raise ConvergenceError(f"non-finite determinant {complex(computed[bad[0]])} "
                               f"at theta node {node} of n_theta={n_theta}")
    dets[mirror[nodes]] = computed.conj()
    dets[nodes] = computed  # a self-conjugate node keeps its own value
    dets = dets.reshape(torus)
    coefs = np.fft.fftn(dets).real
    shift = radius ** -np.arange(n_theta // 2) / n_theta  # radius**-k per axis
    value = coefs[(slice(0, n_theta // 2),) * (p - 1)]
    for _ in range(p - 1):
        value = value @ shift
    mags = np.abs(coefs) / dets.size
    inner = np.abs(np.fft.fftfreq(n_theta, 1.0 / n_theta)) < n_theta // 4
    in_band = np.ones((), dtype=bool)
    for _ in range(p - 1):
        in_band = np.logical_and.outer(in_band, inner)
    noise = _TAIL_NOISE * np.finfo(float).eps * np.abs(dets).max()
    return float(value), float(np.sum(mags[~in_band & (mags > noise)])), dets


def _certified_integral(
    size: int, terms, p: int, radius: float, n_theta: int, tol: float,
    deadline: float | None,
) -> tuple[float, int, float]:
    """Theta integral at the first of ``n_theta, 2 n_theta, ..`` nodes whose tail is certified.

    The terms are packed once (``_pack``), and every rule integrates the
    same packed blocks; a rule is accepted once its tail
    (``_theta_integral``) is at most ``tol``.  Each doubled rule takes the
    determinants of the rule before it and computes only its new nodes.
    ``deadline`` is checked before every doubling.  A rule over
    ``_THETA_MAX_NODES`` nodes in all is not tried: ``ConvergenceError``
    then reports the last tail.  Returns ``(value, n_theta, tail)``; ``p =
    1`` has no theta, and its value is the single determinant ``det(I +
    F)``, real since the bases are (``n_theta = 0``, tail 0).
    """
    if p == 1:
        _check_deadline(deadline, "theta integration")
        return _det_at(size, terms, p, ()).real, 0, 0.0
    packed = _pack(terms)
    dets = None
    while True:
        value, tail, dets = _theta_integral(size, packed, p, radius, n_theta, deadline, dets)
        if tail <= tol:
            return value, n_theta, tail
        if (2 * n_theta) ** (p - 1) > _THETA_MAX_NODES:
            raise ConvergenceError(
                f"theta rule not certified within {n_theta} nodes per circle "
                f"(last theta tail {tail:.3g}, tol={tol:g})"
            )
        _check_deadline(deadline, "theta refinement")
        n_theta *= 2


def _first_level(bound: Callable[[int], float], tol: float, max_levels: int) -> int:
    """First refinement level to build: the last whose error bound exceeds ``tol``.

    ``bound(level)`` is the route's a-priori error scale of ``level``,
    decreasing in ``level``.  Up to the last level whose bound still exceeds
    ``tol``, the levels are not resolved, so the two-level test is not
    expected to pass before the level after it.  The level is at most
    ``max_levels - 1``, so that two levels are compared.
    """
    level = 0
    while level + 1 < max_levels and bound(level + 1) > tol:
        level += 1
    return level


@dataclass(frozen=True)
class FredholmResult:
    """Value and refinement diagnostics of a theta integral of a Fredholm determinant.

    ``value`` is real by construction: the bases are real and the theta
    torus conjugate symmetric (``_theta_integral``).  ``delta`` is its
    distance to the level before, ``nodes`` the route's node count of the
    returned level (contour nodes per circle, or Nystrom nodes per block),
    ``theta_nodes`` the nodes per circle of its accepted theta rule (0 at
    ``p = 1``, which has no circle) and ``theta_tail`` that rule's tail.
    ``levels`` is the index of the returned level and ``first_level`` the
    level the run started at; it built no level below it.
    """

    value: float
    delta: float
    nodes: int
    theta_nodes: int
    levels: int
    first_level: int
    theta_tail: float


def _check_refinement(tol: float, max_levels: int) -> None:
    """Reject a ``tol`` that is not finite and positive, or a negative ``max_levels``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_levels < 0:
        raise ValueError(f"max_levels must be non-negative, got {max_levels}")


def _refine(
    nodes_at: Callable[[int], int], terms_at: Callable[[int], tuple[int, list]], p: int,
    radius: float, tol: float, max_levels: int, deadline: float | None,
    bound: Callable[[int], float] | None = None,
) -> FredholmResult:
    """Integrate over theta from a first level upward until two successive values agree.

    ``nodes_at(level)`` is the route's node count of ``level``, which the
    route grows by ``_refined_count``, and ``terms_at(level)`` returns the
    matrix size and the terms at that resolution.  Each level integrates
    them over theta circles of ``radius`` with the first rule
    ``_certified_integral`` accepts, starting from the previous level's
    node count (``_THETA_NODES`` on the first; ``n_theta = 0`` at ``p =
    1``, which has no circle).  ``max_levels`` is the last level index
    tried.  The run starts at level 0, or with ``bound``, the route's
    a-priori error scale of each level, at ``_first_level``; it builds no
    level below its start and returns the first level whose value agrees
    with the one before it, as a ``FredholmResult``.

    Raises ``ValueError`` unless ``tol`` is finite and positive and
    ``max_levels >= 0`` (``_check_refinement``), ``ConvergenceError``
    reporting the last delta (or theta tail), or when the agreed value lies
    outside ``[0, 1]`` by more than ``tol``, and ``BudgetError`` once
    ``deadline`` has passed.
    """
    _check_refinement(tol, max_levels)
    start = 0 if bound is None else _first_level(bound, tol, max_levels)
    prev, delta, n_theta = None, None, _THETA_NODES
    for level in range(start, max_levels + 1):
        _check_deadline(deadline, "refinement")
        size, terms = terms_at(level)
        value, n_theta, tail = _certified_integral(size, terms, p, radius, n_theta, tol, deadline)
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol:
                # two levels can agree on a value no probability takes when
                # the kernel bases lost their accuracy
                if not -tol <= value <= 1.0 + tol:
                    raise ConvergenceError(f"value {value:.6g} at level {level} is not a probability")
                return FredholmResult(value, delta, nodes_at(level), n_theta, level, start, tail)
        prev = value
    last = "unavailable" if delta is None else f"{delta:.3g}"
    raise ConvergenceError(
        f"refinement did not stabilize by level {max_levels} "
        f"(last delta {last} at level {level}, tol={tol:g})"
    )
