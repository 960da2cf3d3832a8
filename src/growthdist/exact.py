"""Finite-size multi-point distribution as a deformed block-Fredholm determinant.

For corners ``(m_1, n_1) < ... < (m_p, n_p)`` and thresholds ``a_k``, the
joint probability ``P(G(m_k, n_k) < a_k for all k)`` equals a ``(p-1)``-fold
contour integral over auxiliary variables ``theta_k`` on circles of radius
``> 1``:

    P = oint d(theta) det(I + A(theta) + B(theta)) / prod_k (theta_k - 1),

where the ``N x N`` matrices (``N = n_p``) carry a ``p x p`` block
structure indexed by the membership ``i in (n_{r-1}, n_r]``, and are built
out of circular contour integrals of ratios of the normalized factor
``g(w | n, m, a)`` (see ``integrands``).  Entries use the block profile
``m(i) = m_{min(r, p-1)}``, ``a(i) = a_{min(r, p-1)}``.  The pieces are:

* ``L_k``        — two circles around 0 coupled by ``1/(zeta_1 - zeta_2)``;
* ``L^eps``      — circles around 0 chained through circles around 1 with
                   radii ordered by a sign vector ``eps``;
* ``J^eps``      — as ``L^eps`` but terminating in the column index through
                   the last circle around 1;
* ``L_p``        — one circle around 1 into one circle around 0;
* ``B``          — single circles around 0, Toeplitz within each block.

Every piece is weighted by Laurent monomials in ``theta`` attached to its
row block, and the whole matrix is conjugated by ``exp(mu (n(i)-i)/nu)``
(a similarity, so the determinant is invariant in exact arithmetic — a
useful self-test).  The theta integral is evaluated by the trapezoidal
rule, which is exact once the determinant has no Laurent degree outside
``[-n_theta/2, n_theta/2)``.  ``_terms`` turns the pieces into the weighted
bases of the theta-determinant engine in ``linalg``, which sums them, takes
the determinant, integrates over theta and refines: level ``l`` has
``base_nodes * 2**l`` contour nodes and ``n_theta = 8 * 2**l``.

Numerical design: all circle radii approach the critical point ``w_c``
(respectively ``sqrt(q)`` for circles around 1) at the natural fluctuation
scale ``c4 / nu`` of the instance, which keeps integrand magnitudes of
order one near the dominant arc; node counts double until the value is
stable to the requested tolerance.

The single-point case ``p = 1`` has its own two-contour kernel
(``single_point_prob``), refined by the same engine.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .integrands import Contour, circle, log_g
from .linalg import _THETA_NODES, _det_sum, _refine, _theta_integral, lu_det
from .params import (
    ModelParams,
    admissible_eps,
    big_theta,
    compute_constants,
    eps_sign_exponent,
    theta_profile,
)

__all__ = ["ExactResult", "det_theta", "multipoint_prob_exact", "single_point_prob"]


@dataclass(frozen=True)
class ExactResult:
    """Value of a contour-integral evaluation plus convergence diagnostics."""

    value: float
    imag_part: float
    delta: float
    nodes: int
    theta_nodes: int
    levels: int
    converged: bool
    runtime_ms: float


class _Assembler:
    """Builds the theta-independent kernel pieces at a given node count."""

    def __init__(self, params: ModelParams, mu: float, nu: float | None,
                 radius_scale: float):
        self.q = params.q
        self.p = params.p
        self.N = params.n[-1]
        consts = compute_constants(params.q)
        self.wc = consts.w_c
        self.sq = math.sqrt(params.q)
        # cumulative corner vectors with the 0th entry prepended
        self.n0 = (0,) + params.n
        self.m0 = (0,) + params.m
        self.a0 = (0,) + params.a
        # per-block profiles (n(i), m(i), a(i)) shared within block r
        self.prof = {r: params.blocked(r) for r in range(1, self.p + 1)}
        idx = np.arange(1, self.N + 1)
        self.row_block = np.searchsorted(params.n, idx, side="left") + 1
        # contour offsets at the fluctuation scale of the instance
        nu_eff = consts.c0 * self.N ** (1.0 / 3.0)
        dz = consts.c4 / nu_eff * radius_scale
        self.d_zeta = min(dz, self.wc / 8.0)
        self.d_one = min(dz, (self.sq - self.q) / (0.8 + 0.7 * self.p))
        self.tau1 = self.wc - 0.8 * self.d_zeta
        self.tau2 = self.wc - 1.6 * self.d_zeta
        # conjugation (similarity) weights; nu defaults to the fluctuation scale
        d = np.ones(self.N)
        if mu != 0.0:
            n_of_i = np.array([self.prof[r][0] for r in self.row_block])
            d = np.exp(mu * (n_of_i - idx) / (nu_eff if nu is None else nu))
        self.conj = np.outer(d, 1.0 / d)

    # -- contour factories ------------------------------------------------

    def _zeta(self, which: int, nn: int) -> Contour:
        return circle(0.0, self.tau1 if which == 1 else self.tau2, nn)

    def _one_circle(self, offset_rank: int, nn: int) -> Contour:
        return circle(1.0, self.sq - (0.4 + 0.7 * offset_rank) * self.d_one, nn)

    @staticmethod
    def _ladder(window: tuple[int, ...]) -> list[int]:
        """Offset ranks for the circles around 1 attached to a sign window.

        The radius must increase across position ``k`` exactly when
        ``eps_k = 2``; rank 0 is the largest admissible radius.
        """
        walk = [0]
        for e in window:
            walk.append(walk[-1] + (1 if e == 2 else -1))
        top = max(walk)
        return [top - v for v in walk]

    # -- row/column factor grids ------------------------------------------

    def _rows_from_zeta1(self, k1: int, cz: Contour) -> np.ndarray:
        """Row factors ``weights / g(zeta_1 | i - n_{k1}, m(i)-m_{k1}, a(i)-a_{k1})``."""
        out = np.empty((self.N, len(cz)), dtype=complex)
        for r in range(1, self.p + 1):
            lo, hi = self.n0[r - 1], self.n0[r]
            ivals = np.arange(lo + 1, hi + 1)
            _, mr, ar = self.prof[r]
            grid = log_g(
                cz.nodes, ivals - self.n0[k1],
                mr - self.m0[k1], ar - self.a0[k1], self.q,
            )
            out[lo:hi] = np.exp(-grid)
        out *= cz.weights[None, :]
        if k1 == 0:
            out *= (1.0 - cz.nodes)[None, :]
        return out

    def _cols_to_zeta2(self, k2: int, cz: Contour) -> np.ndarray:
        """Column factors ``1 / g(zeta_2 | n_{k2}-j+1, m_{k2}-m(j), a_{k2}-a(j))``."""
        out = np.empty((len(cz), self.N), dtype=complex)
        for s in range(1, self.p + 1):
            lo, hi = self.n0[s - 1], self.n0[s]
            jvals = np.arange(lo + 1, hi + 1)
            _, ms, as_ = self.prof[s]
            grid = log_g(
                cz.nodes, self.n0[k2] - jvals + 1,
                self.m0[k2] - ms, self.a0[k2] - as_, self.q,
            )
            out[:, lo:hi] = np.exp(-grid).T
        return out

    def _z_diag(self, k: int, cz: Contour, absorb_pole_at_one: bool,
                with_g: bool = True) -> np.ndarray:
        """Node factors ``weights * g(z_k | Delta_k(n, m, a))`` on a 1-circle
        (without ``with_g``, the weights and the absorbed pole only)."""
        vals = cz.weights
        if with_g:
            vals = vals * np.exp(log_g(
                cz.nodes,
                self.n0[k] - self.n0[k - 1],
                self.m0[k] - self.m0[k - 1],
                self.a0[k] - self.a0[k - 1],
                self.q,
            ))
        if absorb_pole_at_one:
            vals = vals / (1.0 - cz.nodes)
        return vals

    # -- kernel pieces ------------------------------------------------------

    def build_leps(self, k1: int, k2: int, window: tuple[int, ...], nn: int,
                   last_carries_column: bool = False) -> np.ndarray:
        """Chain kernel over ``(k1, k2]`` with 1-circle order given by ``window``.

        With ``last_carries_column`` the last 1-circle carries the column
        index instead of closing through a second 0-circle (``J^eps``).
        """
        cz1 = self._zeta(1, nn)
        ranks = self._ladder(window)
        mat = self._rows_from_zeta1(k1, cz1)
        prev = cz1.nodes
        for pos, k in enumerate(range(k1 + 1, k2 + 1)):
            czk = self._one_circle(ranks[pos], nn)
            if pos == 0:
                coup = 1.0 / (czk.nodes[None, :] - prev[:, None])
            else:
                coup = 1.0 / (prev[:, None] - czk.nodes[None, :])
            diag = self._z_diag(
                k, czk, absorb_pole_at_one=(pos == 0 and k1 == 0),
                with_g=(k < k2 or not last_carries_column),
            )
            mat = mat @ (coup * diag[None, :])
            prev = czk.nodes
        if last_carries_column:
            # column factors g(z_{k2} | j - 1 - n_{k2-1}, Delta_{k2} m, Delta_{k2} a)
            jvals = np.arange(1, self.N + 1)
            grid = log_g(
                prev, jvals - 1 - self.n0[k2 - 1],
                self.m0[k2] - self.m0[k2 - 1], self.a0[k2] - self.a0[k2 - 1], self.q,
            ).T
            return (mat @ np.exp(grid)) / self.wc
        cz2 = self._zeta(2, nn)
        coup = cz2.weights[None, :] / (prev[:, None] - cz2.nodes[None, :])
        mat = mat @ coup @ self._cols_to_zeta2(k2, cz2)
        return mat / self.wc

    def build_lp(self, nn: int) -> np.ndarray:
        """Row-block-p piece: one circle around 1 into one around 0."""
        p = self.p
        czp = self._one_circle(0, nn)
        cz2 = self._zeta(2, nn)
        ivals = np.arange(1, self.N + 1)
        grid = log_g(
            czp.nodes, self.n0[p] - ivals,
            self.m0[p] - self.m0[p - 1], self.a0[p] - self.a0[p - 1], self.q,
        )
        rows = np.exp(grid) * czp.weights[None, :]
        coup = cz2.weights[None, :] / (czp.nodes[:, None] - cz2.nodes[None, :])
        return (rows @ coup @ self._cols_to_zeta2(p, cz2)) / self.wc

    def build_lk(self, k: int, nn: int) -> np.ndarray:
        """Double 0-circle piece with reference corner ``k``."""
        cz1, cz2 = self._zeta(1, nn), self._zeta(2, nn)
        rows = self._rows_from_zeta1(k, cz1)
        coup = cz2.weights[None, :] / (cz1.nodes[:, None] - cz2.nodes[None, :])
        return (rows @ coup @ self._cols_to_zeta2(k, cz2)) / self.wc

    def build_b_block(self, rstar: int, s: int, nn: int) -> np.ndarray:
        """Toeplitz values of the single-circle piece for profile gap (s, r*)."""
        cz = circle(0.0, self.tau1, nn)
        lo = (self.n0[rstar - 1] + 1) - self.n0[s] + 1
        hi = self.n0[self.p] - (self.n0[s - 1] + 1) + 1
        exps = np.arange(lo, hi + 1)
        grid = log_g(
            cz.nodes, exps,
            self.m0[rstar] - self.m0[s], self.a0[rstar] - self.a0[s], self.q,
        )
        vals = np.exp(-grid) @ cz.weights / self.wc
        return exps, vals

    # -- masks ---------------------------------------------------------------

    def block_rows(self, r: int) -> slice:
        return slice(self.n0[r - 1], self.n0[r])

    def rstar(self, r: int) -> int:
        return min(r, self.p - 1)


def _a2_groups(p: int):
    """Group the sign vectors of each pair ``k1 < k2`` by contour window.

    Yields ``(k1, k2, window, terms)`` with ``terms`` a list of
    ``(sign, eps)``; the window ``eps_{k1+1..k2-1}`` fixes the contour
    ordering, while the remaining free components only affect the weight.
    """
    for k1 in range(0, p + 1):
        for k2 in range(k1 + 1, p + 1):
            groups: dict[tuple[int, ...], list] = {}
            for eps in admissible_eps(k1, k2, p):
                window = eps[k1: k2 - 1]
                sign = (-1) ** (
                    eps_sign_exponent(eps, k1, k2, p) + k1 + min(k2, p - 1)
                )
                groups.setdefault(window, []).append((sign, eps))
            for window, terms in groups.items():
                yield k1, k2, window, terms


def _terms(asm: _Assembler, nn: int) -> list:
    """Engine terms ``(rows, cols, base, coefs)`` at contour node count ``nn``.

    Every theta-independent matrix piece is evaluated once and split into
    row blocks, each carrying its theta coefficients; the similarity
    conjugation is folded into the bases.
    """
    p, N = asm.p, asm.N
    terms = []

    def add(rows: slice, cols: slice, block: np.ndarray, coefs: list) -> None:
        terms.append((rows, cols, block * asm.conj[rows, cols], coefs))

    all_cols = slice(0, N)
    for k1, k2, window, signed in _a2_groups(p):
        base = np.zeros((N, N), dtype=complex)
        row_ok = np.array([asm.rstar(r) > k1 for r in asm.row_block])
        col_ok = np.array([asm.rstar(s) < k2 for s in asm.row_block])
        if row_ok.any() and col_ok.any():
            leps = asm.build_leps(k1, k2, window, nn)
            base += leps * row_ok[:, None] * col_ok[None, :]
        if k2 < p:
            col_j = np.array([s == k2 for s in asm.row_block])
            if row_ok.any() and col_j.any():
                jeps = asm.build_leps(k1, k2, window, nn, last_carries_column=True)
                base += jeps * row_ok[:, None] * col_j[None, :]
        if k1 == p - 1 and k2 == p:
            row_p = np.array([r == p for r in asm.row_block])
            base += asm.build_lp(nn) * row_p[:, None]
        for r in range(1, p + 1):
            rows = asm.block_rows(r)
            add(rows, all_cols, base[rows], [
                lambda th, r=r, sign=sign, eps=eps: sign * theta_profile(r, eps, th)
                for sign, eps in signed
            ])

    for k in range(2, p - 1):
        col_ok = np.array([s < k for s in asm.row_block])
        base = asm.build_lk(k, nn) * col_ok[None, :]
        for r in range(1, p + 1):
            rows = asm.block_rows(r)
            add(rows, all_cols, base[rows],
                [lambda th, r=r, k=k: big_theta(r, k, th, p)])

    for r in range(1, p + 1):
        for s in range(1, asm.rstar(r)):
            exps, vals = asm.build_b_block(asm.rstar(r), s, nn)
            rows, cols = asm.block_rows(r), asm.block_rows(s)
            ivals = np.arange(rows.start + 1, rows.stop + 1)
            jvals = np.arange(cols.start + 1, cols.stop + 1)
            block = vals[(ivals[:, None] - jvals[None, :] + 1) - exps[0]]
            add(rows, cols, block,
                [lambda th: 1.0, lambda th, r=r, s=s: big_theta(r, s, th, p)])
    return terms


def det_theta(
    params: ModelParams,
    thetas: Sequence[complex],
    *,
    mu: float = 0.0,
    nu: float | None = None,
    nodes: int = 256,
    radius_scale: float = 1.0,
) -> complex:
    """``det(I + A(theta) + B(theta))`` at a single ``theta`` point.

    ``mu``/``nu`` set the similarity conjugation and ``radius_scale``
    perturbs the contour radii within their admissible windows; the
    determinant is invariant under both in exact arithmetic, which makes
    this the natural entry point for invariance certificates.
    """
    if params.p < 2:
        raise ValueError("det_theta needs p >= 2 (use single_point_prob)")
    if len(thetas) != params.p - 1:
        raise ValueError(f"expected {params.p - 1} theta components")
    asm = _Assembler(params, mu, nu, radius_scale)
    node = tuple(np.array([complex(th)]) for th in thetas)
    return _det_sum(asm.N, _terms(asm, nodes), node, np.ones(1), 1, None)


def multipoint_prob_exact(
    params: ModelParams,
    *,
    mu: float = 0.0,
    nu: float | None = None,
    tol: float = 1e-9,
    base_nodes: int = 64,
    max_levels: int = 7,
    theta_radius: float = 2.0,
    radius_scale: float = 1.0,
    deadline: float | None = None,
) -> ExactResult:
    """Evaluate ``P(G(m_k, n_k) < a_k for all k)`` by contour quadrature.

    Contour node counts start at ``base_nodes`` and theta nodes at 8; both
    double, at most ``max_levels`` times, until two successive evaluations
    agree within ``tol`` (``ConvergenceError`` otherwise).  ``mu``/``nu``
    control the similarity conjugation (the value is invariant);
    ``theta_radius`` (> 1) and ``radius_scale`` perturb contours without
    changing the value.  ``deadline`` is a ``time.monotonic()`` stamp after
    which ``BudgetError`` is raised.
    """
    start = time.perf_counter()
    if base_nodes < 1:
        raise ValueError(f"base_nodes must be at least 1, got {base_nodes}")
    if any(ak <= 0 for ak in params.a):
        return ExactResult(0.0, 0.0, 0.0, 0, 0, 0, True, 0.0)
    if params.p == 1:
        return single_point_prob(
            params, tol=tol, base_nodes=base_nodes, max_levels=max_levels,
            radius_scale=radius_scale, deadline=deadline,
        )
    if theta_radius <= 1.0:
        raise ValueError("theta_radius must exceed 1")
    asm = _Assembler(params, mu, nu, radius_scale)

    def evaluate(level: int) -> complex:
        terms = _terms(asm, base_nodes * 2 ** level)
        return _theta_integral(
            asm.N, terms, asm.p, theta_radius, _THETA_NODES * 2 ** level, deadline
        )

    val, delta, level = _refine(evaluate, tol, max_levels, deadline)
    return ExactResult(
        value=float(val.real), imag_part=float(val.imag), delta=float(delta),
        nodes=base_nodes * 2 ** level, theta_nodes=_THETA_NODES * 2 ** level,
        levels=level, converged=True, runtime_ms=(time.perf_counter() - start) * 1e3,
    )


def single_point_prob(
    params: ModelParams,
    *,
    tol: float = 1e-9,
    base_nodes: int = 64,
    max_levels: int = 7,
    radius_scale: float = 1.0,
    deadline: float | None = None,
) -> ExactResult:
    """``P(G(m, n) < a)`` via the two-contour kernel determinant (p = 1)."""
    if params.p != 1:
        raise ValueError("single_point_prob expects a single corner")
    start = time.perf_counter()
    m, n, a = params.m[0], params.n[0], params.a[0]
    if a <= 0:
        return ExactResult(0.0, 0.0, 0.0, 0, 0, 0, True, 0.0)
    q = params.q
    consts = compute_constants(q)
    wc, sq = consts.w_c, math.sqrt(q)
    nu_eff = consts.c0 * n ** (1.0 / 3.0)
    dz = consts.c4 / nu_eff * radius_scale
    tau = wc - 0.8 * min(dz, wc / 8.0)
    radius = sq - 0.4 * min(dz, (sq - q) / 2.0)
    ivals = np.arange(1, n + 1)

    def evaluate(level: int) -> complex:
        nn = base_nodes * 2 ** level
        cone = circle(1.0, radius, nn)
        czero = circle(0.0, tau, nn)
        rows = np.exp(log_g(cone.nodes, n - ivals, m, a - 1, q))
        rows *= cone.weights[None, :]
        cols = np.exp(-log_g(czero.nodes, n - ivals + 1, m, a - 1, q)).T
        coup = czero.weights[None, :] / (cone.nodes[:, None] - czero.nodes[None, :])
        mat = (rows @ coup @ cols) / wc
        return lu_det(np.eye(n, dtype=complex) + mat)

    det, delta, level = _refine(evaluate, tol, max_levels, deadline)
    return ExactResult(
        value=float(det.real), imag_part=float(det.imag), delta=float(delta),
        nodes=base_nodes * 2 ** level, theta_nodes=0, levels=level,
        converged=True, runtime_ms=(time.perf_counter() - start) * 1e3,
    )
