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
with ``nu`` the fluctuation scale (a similarity, so the determinant is
invariant in exact arithmetic — a useful self-test).  ``_terms`` turns the
pieces into the weighted bases of the theta-determinant engine in
``linalg``, which sums them, takes the determinant, integrates over theta
with its trapezoidal rule and refines; level ``l`` has ``base_nodes *
2**l`` contour nodes.

Per level, every piece but ``B`` is a chain: row factors on a first circle,
Cauchy couplings ``1/(a - b)`` between successive circles scaled by node
factors, and column factors on a last circle.  The pieces share most of
their circles, so a level is assembled from distinct parts: each row,
column and node factor and each ordered-circle Cauchy matrix is formed once,
each shared chain prefix is multiplied once, and all chains are walked
together link by link (``_Assembler.chain_values``).  Memory rule: a Cauchy
matrix (``nn x nn``, the only large piece) or a column factor lives from its
first use to its last within the walk, and nothing built for a level
survives it.

Numerical design: all circle radii approach the critical point ``w_c``
(respectively ``sqrt(q)`` for circles around 1) at the natural fluctuation
scale ``c4 / nu`` of the instance, which keeps integrand magnitudes of
order one near the dominant arc; node counts double until the value is
stable to the requested tolerance.

The single-point case ``p = 1`` has no theta integral: its two-contour
kernel (``_single_point_terms``) is one engine term, and the engine
refines its single determinant ``det(I + K)`` like any other.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .integrands import Contour, _walk_chains, circle, log_g
from .linalg import _det_at, _refine
# Unused here since the engine takes every determinant, but kept importable:
# a tracer that wraps ``lu_det`` in every module namespace holding it
# (``perfbench/tracing.py``) checks that it restores this name too.
from .linalg import lu_det
from .params import (
    ModelParams,
    admissible_eps,
    big_theta,
    compute_constants,
    eps_sign_exponent,
    theta_profile,
)

__all__ = ["ExactResult", "det_theta", "multipoint_prob_exact"]


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


class _Link(NamedTuple):
    """One contour of a chain and the factors it carries.

    ``circle`` is ``"zeta1"``, ``"zeta2"`` or the offset rank of a circle
    around 1.  On the first link of a chain, ``factors`` is the corner
    ``k1`` of the row factors on ``zeta_1`` (the ``L_p`` rows on the rank-0
    circle take ``None``).  On a later circle around 1 it holds the
    ``(k, absorb_pole_at_one, with_g)`` arguments of ``_Assembler._z_diag``;
    on ``zeta_2`` it is ``None``, the weights sitting in the column factors.
    """

    circle: object
    factors: object


class _Chain(NamedTuple):
    """An iterated contour integral ``rows @ couplings @ columns / sign``.

    ``cols`` is ``(k2, circle)``: the column factors of corner ``k2`` on the
    last link's circle, ``zeta_2`` or the last circle around 1 when it
    carries the column index.  ``sign`` is ``+-w_c``.
    """

    links: tuple[_Link, ...]
    cols: tuple
    sign: float


def _check_controls(mu: float, radius_scale: float,
                    theta_radius: float | None = None) -> None:
    """Reject contour and conjugation controls that no contour layout realizes."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not (math.isfinite(radius_scale) and radius_scale > 0):
        raise ValueError(f"radius_scale must be finite and positive, got {radius_scale}")
    if theta_radius is not None and not (math.isfinite(theta_radius) and theta_radius > 1):
        raise ValueError(f"theta_radius must be finite and exceed 1, got {theta_radius}")


class _Assembler:
    """Builds the theta-independent kernel pieces of one instance.

    The chain pieces are described node-count free (``leps_chain``,
    ``lp_chain``, ``lk_chain``) and evaluated together at a level's node
    count by ``chain_values``, which forms every shared factor and coupling
    once and drops each coupling after its last use.
    """

    def __init__(self, params: ModelParams, mu: float, radius_scale: float):
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
        # conjugation (similarity) weights at the fluctuation scale
        d = np.ones(self.N)
        if mu != 0.0:
            n_of_i = np.array([self.prof[r][0] for r in self.row_block])
            d = np.exp(mu * (n_of_i - idx) / nu_eff)
        self.conj = np.outer(d, 1.0 / d)

    # -- contours ---------------------------------------------------------

    def _contour(self, key, nn: int) -> Contour:
        """``"zeta1"``, ``"zeta2"`` or the circle around 1 of offset rank ``key``."""
        if key == "zeta1":
            return circle(0.0, self.tau1, nn)
        if key == "zeta2":
            return circle(0.0, self.tau2, nn)
        return circle(1.0, self.sq - (0.4 + 0.7 * key) * self.d_one, nn)

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

    def _rows_from_one(self, cz: Contour) -> np.ndarray:
        """Row factors ``weights * g(z_p | n_p - i, Delta_p m, Delta_p a)`` of ``L_p``."""
        p = self.p
        grid = log_g(
            cz.nodes, self.n0[p] - np.arange(1, self.N + 1),
            self.m0[p] - self.m0[p - 1], self.a0[p] - self.a0[p - 1], self.q,
        )
        return np.exp(grid) * cz.weights[None, :]

    def _cols_to_zeta2(self, k2: int, cz: Contour) -> np.ndarray:
        """Column factors ``weights / g(zeta_2 | n_{k2}-j+1, m_{k2}-m(j), a_{k2}-a(j))``."""
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
        return out * cz.weights[:, None]

    def _cols_on_one(self, k2: int, cz: Contour) -> np.ndarray:
        """Column factors ``g(z_{k2} | j - 1 - n_{k2-1}, Delta_{k2} m, Delta_{k2} a)``
        of ``J^eps``, whose last circle around 1 carries the column index."""
        grid = log_g(
            cz.nodes, np.arange(1, self.N + 1) - 1 - self.n0[k2 - 1],
            self.m0[k2] - self.m0[k2 - 1], self.a0[k2] - self.a0[k2 - 1], self.q,
        )
        return np.exp(grid).T

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

    # -- kernel pieces as chains of contour couplings ----------------------

    def leps_chain(self, k1: int, k2: int, window: tuple[int, ...],
                   last_carries_column: bool = False) -> _Chain:
        """``L^eps`` over ``(k1, k2]`` with 1-circle order given by ``window``.

        With ``last_carries_column`` the last 1-circle carries the column
        index instead of closing through a second 0-circle (``J^eps``).  The
        first coupling is ``1/(z_{k1+1} - zeta_1)``, the negative of the
        Cauchy matrix from ``zeta_1``, hence the sign.
        """
        links = (_Link("zeta1", k1),) + tuple(
            _Link(rank, (k, pos == 0 and k1 == 0, k < k2 or not last_carries_column))
            for pos, (k, rank) in enumerate(zip(range(k1 + 1, k2 + 1), self._ladder(window)))
        )
        if not last_carries_column:
            links += (_Link("zeta2", None),)
        return _Chain(links, (k2, links[-1].circle), -1.0 * self.wc)

    def lp_chain(self) -> _Chain:
        """Row-block-p piece: one circle around 1 into one around 0."""
        return _Chain((_Link(0, None), _Link("zeta2", None)), (self.p, "zeta2"), self.wc)

    def lk_chain(self, k: int) -> _Chain:
        """Double 0-circle piece with reference corner ``k``."""
        return _Chain((_Link("zeta1", k), _Link("zeta2", None)), (k, "zeta2"), self.wc)

    def chain_values(self, chains: Sequence[_Chain], nn: int) -> dict[_Chain, np.ndarray]:
        """``{chain: N x N value}`` at ``nn`` nodes per circle, from shared pieces.

        ``integrands._walk_chains`` forms each ordered-circle Cauchy matrix
        and each column factor once, multiplies each shared prefix once and
        drops every coupling and column factor after its last use; the row
        and node factors are formed once.
        """
        contours: dict = {}
        node_factors: dict = {}

        def contour(key) -> Contour:
            if key not in contours:
                contours[key] = self._contour(key, nn)
            return contours[key]

        def rows(link: _Link) -> np.ndarray:
            if link.circle == "zeta1":
                return self._rows_from_zeta1(link.factors, contour("zeta1"))
            return self._rows_from_one(contour(link.circle))

        def scale(link: _Link) -> np.ndarray | None:
            if link.factors is None:
                return None
            if link not in node_factors:
                k, absorb, with_g = link.factors
                node_factors[link] = self._z_diag(k, contour(link.circle), absorb, with_g)
            return node_factors[link]

        def cols(key) -> np.ndarray:
            k2, last = key
            if last == "zeta2":
                return self._cols_to_zeta2(k2, contour(last))
            return self._cols_on_one(k2, contour(last))

        return _walk_chains(
            chains, nodes=lambda key: contour(key).nodes, rows=rows, scale=scale, cols=cols,
        )

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

    Every chain piece (``L^eps``, ``J^eps``, ``L_p``, ``L_k``) of the level
    is evaluated in one ``chain_values`` walk over shared couplings, then
    masked and split into row blocks, each carrying its theta coefficients;
    the similarity conjugation is folded into the bases.
    """
    p, N = asm.p, asm.N
    terms = []

    def add(rows: slice, cols: slice, block: np.ndarray, coefs: list) -> None:
        terms.append((rows, cols, block * asm.conj[rows, cols], coefs))

    groups = []
    for k1, k2, window, signed in _a2_groups(p):
        parts = []
        row_ok = np.array([asm.rstar(r) > k1 for r in asm.row_block])
        col_ok = np.array([asm.rstar(s) < k2 for s in asm.row_block])
        if row_ok.any() and col_ok.any():
            parts.append((asm.leps_chain(k1, k2, window), row_ok[:, None] * col_ok[None, :]))
        if k2 < p:
            col_j = np.array([s == k2 for s in asm.row_block])
            if row_ok.any() and col_j.any():
                parts.append((asm.leps_chain(k1, k2, window, last_carries_column=True),
                              row_ok[:, None] * col_j[None, :]))
        if k1 == p - 1 and k2 == p:
            row_p = np.array([r == p for r in asm.row_block])
            parts.append((asm.lp_chain(), row_p[:, None]))
        groups.append((signed, parts))
    lks = [(k, asm.lk_chain(k), np.array([s < k for s in asm.row_block]))
           for k in range(2, p - 1)]
    values = asm.chain_values(
        [chain for _, parts in groups for chain, _ in parts] + [c for _, c, _ in lks], nn)

    all_cols = slice(0, N)
    for signed, parts in groups:
        base = np.zeros((N, N), dtype=complex)
        for chain, mask in parts:
            base += values[chain] * mask
        for r in range(1, p + 1):
            rows = asm.block_rows(r)
            add(rows, all_cols, base[rows], [
                lambda th, r=r, sign=sign, eps=eps: sign * theta_profile(r, eps, th)
                for sign, eps in signed
            ])

    for k, chain, col_ok in lks:
        base = values[chain] * col_ok[None, :]
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


def _single_point_terms(params: ModelParams, radius_scale: float):
    """Engine terms of the p = 1 two-contour kernel, as ``nn -> terms``.

    ``K = rows @ couplings @ columns / w_c`` runs from a circle around 1
    into a circle around 0, both at the fluctuation scale of the instance;
    ``P(G(m, n) < a) = det(I + K)`` is the one term ``(all, all, K, [1])``.
    """
    m, n, a = params.m[0], params.n[0], params.a[0]
    q = params.q
    consts = compute_constants(q)
    wc, sq = consts.w_c, math.sqrt(q)
    nu_eff = consts.c0 * n ** (1.0 / 3.0)
    dz = consts.c4 / nu_eff * radius_scale
    tau = wc - 0.8 * min(dz, wc / 8.0)
    radius = sq - 0.4 * min(dz, (sq - q) / 2.0)
    ivals = np.arange(1, n + 1)
    every = slice(0, n)

    def terms(nn: int) -> list:
        cone = circle(1.0, radius, nn)
        czero = circle(0.0, tau, nn)
        rows = np.exp(log_g(cone.nodes, n - ivals, m, a - 1, q))
        rows *= cone.weights[None, :]
        cols = np.exp(-log_g(czero.nodes, n - ivals + 1, m, a - 1, q)).T
        coup = czero.weights[None, :] / (cone.nodes[:, None] - czero.nodes[None, :])
        return [(every, every, (rows @ coup @ cols) / wc, [lambda th: 1.0])]

    return terms


def det_theta(
    params: ModelParams,
    thetas: Sequence[complex],
    *,
    mu: float = 0.0,
    nodes: int = 256,
    radius_scale: float = 1.0,
) -> complex:
    """``det(I + A(theta) + B(theta))`` at a single ``theta`` point.

    ``mu`` sets the similarity conjugation and ``radius_scale`` perturbs
    the contour radii within their admissible windows; the determinant is
    invariant under both in exact arithmetic, which makes this the natural
    entry point for invariance certificates.
    """
    if params.p < 2:
        raise ValueError("det_theta needs p >= 2 (p = 1 has no theta)")
    if len(thetas) != params.p - 1:
        raise ValueError(f"expected {params.p - 1} theta components")
    _check_controls(mu, radius_scale)
    asm = _Assembler(params, mu, radius_scale)
    return _det_at(asm.N, _terms(asm, nodes), thetas)


def multipoint_prob_exact(
    params: ModelParams,
    *,
    mu: float = 0.0,
    tol: float = 1e-9,
    base_nodes: int = 64,
    max_levels: int = 7,
    theta_radius: float = 2.0,
    radius_scale: float = 1.0,
    deadline: float | None = None,
) -> ExactResult:
    """Evaluate ``P(G(m_k, n_k) < a_k for all k)`` by contour quadrature.

    Contour node counts start at ``base_nodes`` and theta nodes at 8 (none
    at ``p = 1``); both double, at most ``max_levels`` times, until two
    successive evaluations agree within ``tol`` (``ConvergenceError``
    otherwise).  ``mu`` controls the similarity conjugation (the value is
    invariant); ``theta_radius`` (> 1) and ``radius_scale`` perturb
    contours without changing the value.  ``deadline`` is a
    ``time.monotonic()`` stamp after which ``BudgetError`` is raised.
    """
    start = time.perf_counter()
    if base_nodes < 1:
        raise ValueError(f"base_nodes must be at least 1, got {base_nodes}")
    _check_controls(mu, radius_scale, theta_radius)
    if any(ak <= 0 for ak in params.a):
        return ExactResult(0.0, 0.0, 0.0, 0, 0, 0, True, 0.0)
    if params.p == 1:
        terms = _single_point_terms(params, radius_scale)
    else:
        terms = partial(_terms, _Assembler(params, mu, radius_scale))
    val, delta, level, n_theta = _refine(
        lambda level: (params.n[-1], terms(base_nodes * 2 ** level)),
        params.p, theta_radius, tol, max_levels, deadline,
    )
    return ExactResult(
        value=float(val.real), imag_part=float(val.imag), delta=float(delta),
        nodes=base_nodes * 2 ** level, theta_nodes=n_theta,
        levels=level, converged=True, runtime_ms=(time.perf_counter() - start) * 1e3,
    )
