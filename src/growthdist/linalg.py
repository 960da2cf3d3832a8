"""Determinants, Nystrom discretization and the theta-determinant engine.

Fredholm determinants ``det(I + K)`` on a direct sum of half-line L^2
spaces are evaluated by Nystrom's method: Gauss-Legendre nodes per block,
the symmetrized matrix ``I + W^(1/2) K W^(1/2)``, and an LU factorization
with LAPACK partial pivoting.  Results are reproducible across reruns on
one machine with one BLAS thread count.

The finite-size law (``exact``) and its limit (``asymptotic``) share the
private theta-determinant engine ``_det_sum`` / ``_theta_integral`` /
``_refine``.  Its terms ``(rows, cols, base, coefs)`` add
``sum(c(theta) for c in coefs) * base`` to block ``[rows, cols]``; every
theta-independent diagonal scaling is folded into ``base`` beforehand.
The engine evaluates every coefficient once per call on the whole flattened
theta grid, builds the matrices ``I + sum_j c_j(theta) B_j`` in chunks of
about ``_DET_BATCH_BYTES`` and takes each chunk's determinants in one
batched ``lu_det`` call; a single theta point is a one-node grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, ConvergenceError
from .integrands import circle, composite_gl

__all__ = [
    "lu_det",
    "NystromGrid",
    "block_grid",
    "nystrom_det",
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

    def block(self, r: int) -> np.ndarray:
        return self.nodes[self.slices[r - 1]]

    def __len__(self) -> int:
        return len(self.nodes)


def block_grid(p: int, extent: float = 12.0, n: int = 48) -> NystromGrid:
    """Gauss-Legendre grid truncating each half-line at ``extent``."""
    nodes, weights, slices = [], [], []
    start = 0
    for r in range(1, p + 1):
        lo, hi = (0.0, extent) if r == p else (-extent, 0.0)
        x, w = composite_gl(lo, hi, n, panel_size=12)
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


def nystrom_det(kernel: np.ndarray, grid: NystromGrid) -> complex:
    """``det(I + W^(1/2) K W^(1/2))`` for the kernel matrix at the grid nodes."""
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel values must be finite")
    sw = np.sqrt(grid.weights)
    mat = np.eye(len(grid), dtype=complex) + sw[:, None] * kernel * sw[None, :]
    return lu_det(mat)


# ---------------------------------------------------------------------------
# theta-determinant engine
# ---------------------------------------------------------------------------

_THETA_NODES = 8  # per circle at level 0: exact for Laurent degrees in [-4, 4)
_DET_BATCH_BYTES = 4 * 2 ** 20  # bytes of matrices per batched determinant call


def _check_deadline(deadline: float | None, phase: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError(f"time budget exhausted during {phase}")


def _det_sum(
    size: int, terms, thetas: tuple[np.ndarray, ...], weights: np.ndarray,
    n_theta: int, deadline: float | None,
) -> complex:
    """``sum_k weights[k] * det(I + sum_j c_j(theta_k) B_j)`` over theta nodes ``k``.

    ``thetas[i][k]`` is component ``i`` of node ``k``; the nodes are the
    flattened ``(n_theta,) * len(thetas)`` grid in row-major order.  Each
    term's coefficients are tabulated once over all nodes; coefficients
    below ``1e-300`` count as zero and a term that is zero over a chunk is
    skipped.  ``deadline`` is checked before every chunk; a non-finite
    determinant raises ``ConvergenceError`` naming its node.
    """
    count = len(weights)
    table = np.zeros((len(terms), count), dtype=complex)
    for row, (_, _, _, coefs) in zip(table, terms):
        row[:] = sum(c(thetas) for c in coefs)
    table[np.abs(table) < 1e-300] = 0.0
    chunk = max(1, _DET_BATCH_BYTES // (16 * size * size))
    eye = np.eye(size, dtype=complex)
    total = 0.0 + 0.0j
    for lo in range(0, count, chunk):
        _check_deadline(deadline, "theta integration")
        hi = min(lo + chunk, count)
        mats = np.repeat(eye[None], hi - lo, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for (rows, cols, base, _), coef in zip(terms, table[:, lo:hi]):
                if coef.any():
                    mats[:, rows, cols] += coef[:, None, None] * base
            dets = lu_det(mats)
        bad = np.flatnonzero(~np.isfinite(dets))
        if bad.size:
            node = np.unravel_index(lo + bad[0], (n_theta,) * len(thetas))
            raise ConvergenceError(
                f"non-finite determinant {complex(dets[bad[0]])} at theta node "
                f"{tuple(int(j) for j in node)} of n_theta={n_theta}")
        total += np.sum(weights[lo:hi] * dets)
    return complex(total)


def _theta_integral(
    size: int, terms, p: int, radius: float, n_theta: int, deadline: float | None
) -> complex:
    """Trapezoidal ``(p-1)``-fold integral of ``det(I+M(theta))/prod(theta_k - 1)``.

    Each theta runs over ``|theta| = radius`` with ``n_theta`` (even) nodes
    and ``1/(theta - 1) = sum_{j>=1} theta^-j`` is cut after ``n_theta/2``
    terms, so the rule returns exactly the sum of the determinant's Laurent
    coefficients with every degree ``>= 0``, at any radius ``> 1``, once it
    has no degree outside ``[-n_theta/2, n_theta/2)``.  Callers take
    ``n_theta = _THETA_NODES * 2**level``.  All ``n_theta**(p-1)`` nodes go
    to ``_det_sum`` at once, which tabulates the coefficients on the whole
    grid and takes the determinants in chunked batches, checking
    ``deadline`` before each chunk.
    """
    ring = circle(0.0, radius, n_theta)
    weights = ring.weights / (ring.nodes - 1.0) * (1.0 - ring.nodes ** (-(n_theta // 2)))
    axes = np.meshgrid(*[ring.nodes] * (p - 1), indexing="ij")
    thetas = tuple(axis.ravel() for axis in axes)
    flat = np.ones(1, dtype=complex)
    for _ in range(p - 1):
        flat = np.multiply.outer(flat, weights).ravel()
    return _det_sum(size, terms, thetas, flat, n_theta, deadline)


def _refine(
    evaluate: Callable[[int], complex], tol: float, max_levels: int,
    deadline: float | None,
) -> tuple[complex, float, int]:
    """Evaluate at levels ``0, 1, ..`` until two successive values agree.

    ``evaluate(level)`` computes the value at the resolution doubled
    ``level`` times.  At most ``max_levels`` doublings follow the first
    evaluation.  Returns ``(value, delta, level)``; raises ``ValueError``
    unless ``tol > 0`` and ``max_levels >= 0``, ``ConvergenceError``
    reporting the last delta, or ``BudgetError`` once ``deadline`` has
    passed.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_levels < 0:
        raise ValueError(f"max_levels must be non-negative, got {max_levels}")
    prev, delta, level = None, None, 0
    for level in range(max_levels + 1):
        _check_deadline(deadline, "refinement")
        value = evaluate(level)
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol:
                return value, delta, level
        prev = value
    last = "unavailable" if delta is None else f"{delta:.3g}"
    raise ConvergenceError(
        f"refinement did not stabilize within {max_levels} doublings "
        f"(last delta {last} at level {level}, tol={tol:g})"
    )
