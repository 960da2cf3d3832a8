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

Every piece is weighted by a Laurent polynomial in ``theta`` that depends
on its block, and the whole matrix is conjugated by ``exp(mu (n(i)-i)/nu)``
with ``nu`` the fluctuation scale (a similarity, so the determinant is
invariant in exact arithmetic — a useful self-test).  ``_pieces`` maps each
block ``(r, s)`` to its parts and polynomials once per run, from the walk
``params._sign_windows`` that ``asymptotic._block_terms`` shares, and
``_terms`` cuts each part to its block for the theta-determinant engine in
``linalg``, which sums them, takes the determinant, integrates over theta
with its trapezoidal rule and refines.  Times that a later time implies
are dropped first (``_drop_implied_times``), and the sides swapped so that
``n_p <= m_p`` (``params._short_side``).  Level ``l`` has ``base_nodes``
grown by ``sqrt(2)`` per level (64, 90, 128, 182, .. from 64) contour nodes
per circle, ``base_nodes`` being the base of this schedule, not the first
count built: a run starts at the last level whose closest concentric
circles still alias above ``tol`` (``linalg._first_level``), builds upward
until two successive levels agree, and returns the engine's
``linalg.FredholmResult``: the index of the finer level as ``levels``, its
contour nodes per circle as ``nodes``.

Per level, every piece but ``B`` is a chain: row factors on a first circle,
Cauchy couplings ``1/(a - b)`` between successive circles scaled by node
factors, and column factors on a last circle.  The pieces share most of
their circles, so a level is assembled from distinct parts: each row,
column and node factor and each ordered-circle Cauchy matrix is formed once,
each shared chain prefix is multiplied once, and all chains are walked
together link by link (``_Assembler.chain_values``).  Each chain is real
and invariant under ``w -> conj(w)``, and node ``nn - 1 - k`` of a circle
is the conjugate of node ``k``, so the walk sums over the upper half of
every circle and folds in the lower half exactly.  Memory rule: a Cauchy
matrix (``nn/2 x nn``, the only large piece) or a column factor lives from
its first use to its last within the walk, and nothing built for a level
survives it.  Contour node counts must be even.

Numerical design: all circle radii sit at offsets from the critical point
``w_c`` (respectively ``sqrt(q)`` for circles around 1) in units of two
fluctuation scales ``c4 / nu`` of the instance, capped so that every
circle stays in its admissible window.  The paper's steepest-descent limit
needs circles at the fluctuation scale itself, but the quadrature does
not: the trapezoid rule on a coupling of two concentric circles aliases
like ``(r_in / r_out)**nn`` (Trefethen & Weideman, SIAM Rev. 56, 2014),
so circles two units out need about half the nodes of circles one unit
out, while the integrands stay of order one near the dominant arc.  Node
counts grow until the value is stable to the requested tolerance.

At ``p = 1`` the table holds one part, the ``L_p`` chain with coefficient
1, which is the kernel of ``P(G(m, n) <= a)``: the assembly takes the
threshold as ``a - 1``, and the engine refines one determinant, no theta.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .integrands import Contour, _Chain, _walk_chains, circle, log_g
from .linalg import FredholmResult, _check_refinement, _det_at, _refine, _refined_count
# Unused here since the engine takes every determinant, but kept importable:
# a tracer that wraps ``lu_det`` in every module namespace holding it
# (``perfbench/tracing.py``) checks that it restores this name too.
from .linalg import lu_det
from .params import (
    Laurent,
    ModelParams,
    _short_side,
    _sign_windows,
    _window_piece,
    big_theta,
    compute_constants,
    theta_profile,
)

__all__ = ["det_theta", "multipoint_prob_exact"]

# Contour offsets are measured in units of this many fluctuation scales
# ``c4 / nu``.  Two keep the integrands of order one near the dominant arc
# while halving the nodes the closest concentric circles need against one.
_OFFSET_UNITS = 2.0


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


def _check_node_count(name: str, nodes: int) -> None:
    """Reject contour node counts that are not positive and even.

    The chain walk pairs node ``k`` of a circle with node
    ``nn - 1 - k``; an odd count also puts a node on the real axis, where the
    circles around 0 cross the branch cut of ``log w``.
    """
    if nodes < 2 or nodes % 2:
        raise ValueError(f"{name} must be a positive even number, got {nodes}")


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
        # cumulative corner vectors with the origin prepended as index 0
        self.n0 = (0,) + params.n
        self.m0 = (0,) + params.m
        # At p = 1 the lone piece, L_p, is the kernel of P(G(m, n) <= a), so
        # the threshold of the event G(m, n) < a enters as a - 1.
        self.a0 = (0,) + (params.a if self.p > 1 else (params.a[0] - 1,))
        idx = np.arange(1, self.N + 1)
        # per-index profiles n(i), m(i), a(i): the corner min(r, p-1) of row block r
        corner = np.minimum(np.searchsorted(params.n, idx, side="left") + 1, self.p - 1)
        n_of_i, self.m_of_i, self.a_of_i = (np.take(v, corner) for v in (self.n0, self.m0, self.a0))
        # contour offsets in units of two fluctuation scales of the instance
        nu_eff = consts.c0 * self.N ** (1.0 / 3.0)
        dz = _OFFSET_UNITS * consts.c4 / nu_eff * radius_scale
        self.d_zeta = min(dz, self.wc / 8.0)
        self.d_one = min(dz, (self.sq - self.q) / (0.8 + 0.7 * self.p))
        self.tau1 = self.wc - 0.8 * self.d_zeta
        self.tau2 = self.wc - 1.6 * self.d_zeta
        # conjugation (similarity) weights at the fluctuation scale
        d = np.ones(self.N)
        if mu != 0.0:
            d = np.exp(mu * (n_of_i - idx) / nu_eff)
        self.conj = np.outer(d, 1.0 / d)

    # -- contours ---------------------------------------------------------

    @staticmethod
    def _centre(key) -> float:
        return 0.0 if key in ("zeta1", "zeta2") else 1.0

    def _radius(self, key) -> float:
        if key == "zeta1":
            return self.tau1
        if key == "zeta2":
            return self.tau2
        return self.sq - (0.4 + 0.7 * key) * self.d_one

    def _contour(self, key, nn: int) -> Contour:
        """``"zeta1"``, ``"zeta2"`` or the circle around 1 of offset rank ``key``."""
        return circle(self._centre(key), self._radius(key), nn)

    def coupling_ratio(self, chains: Sequence[_Chain]) -> float:
        """Largest ``r_in / r_out`` over the concentric circles a chain couples.

        Successive links of a chain are coupled directly.  Concentric pairs
        are adjacent offset ranks around 1, the largest ratio being ranks 0
        and 1, and ``zeta_1, zeta_2``, which only ``L_k`` (``p >= 4``)
        couples.  0 when no chain couples two concentric circles.

        The trapezoid rule of ``nn`` nodes on the Cauchy coupling of such a
        pair aliases at order ``ratio**nn`` (Trefethen & Weideman, SIAM Rev.
        56, 2014), and on generated instances a level's error is close to a
        fixed multiple of it: about 0.9 down to 1e-5, the small multiples
        where a threshold ``a_k`` is near 1.
        """
        ratio = 0.0
        for chain in chains:
            for a, b in zip(chain.links, chain.links[1:]):
                if self._centre(a.circle) == self._centre(b.circle):
                    inner, outer = sorted((self._radius(a.circle), self._radius(b.circle)))
                    ratio = max(ratio, inner / outer)
        return ratio

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
        grid = log_g(
            cz.nodes, np.arange(1, self.N + 1) - self.n0[k1],
            self.m_of_i - self.m0[k1], self.a_of_i - self.a0[k1], self.q,
        )
        out = np.exp(-grid) * cz.weights[None, :]
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
        grid = log_g(
            cz.nodes, self.n0[k2] - np.arange(1, self.N + 1) + 1,
            self.m0[k2] - self.m_of_i, self.a0[k2] - self.a_of_i, self.q,
        )
        return np.exp(-grid).T * cz.weights[:, None]

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
    # A chain's links are ``_Link``s; its ``cols`` is ``(k2, circle)``, the
    # column factors of corner ``k2`` on the last link's circle (``zeta_2``,
    # or the last circle around 1 when it carries the column index); its
    # ``sign`` is ``+-w_c``.

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
        """``{chain: real N x N value}`` at ``nn`` (even) nodes per circle.

        ``integrands._walk_chains`` forms each ordered-circle Cauchy matrix
        and each column factor once, multiplies each shared prefix once and
        drops every coupling and column factor after its last use; the row
        and node factors are formed once.  Every circle is centred on the
        real axis and every factor has real parameters, so the walk runs on
        the first ``nn / 2`` nodes of each circle (the upper half), whose
        conjugates are the other half.
        """
        contours: dict = {}
        node_factors: dict = {}

        def contour(key) -> Contour:
            if key not in contours:
                full = self._contour(key, nn)
                contours[key] = Contour(full.nodes[:nn // 2], full.weights[:nn // 2])
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

    def b_block(self, r: int, s: int, nn: int) -> np.ndarray:
        """Block ``(r, s)`` of the single-circle piece, Toeplitz for profile gap ``(s, r*)``.

        The values are real: the sum runs over the upper half of the circle
        and adds each node's conjugate as twice the real part.
        """
        rstar = self.rstar(r)
        cz = circle(0.0, self.tau1, nn)
        lo = (self.n0[rstar - 1] + 1) - self.n0[s] + 1
        hi = self.n0[self.p] - (self.n0[s - 1] + 1) + 1
        grid = log_g(
            cz.nodes[:nn // 2], np.arange(lo, hi + 1),
            self.m0[rstar] - self.m0[s], self.a0[rstar] - self.a0[s], self.q,
        )
        vals = 2.0 * (np.exp(-grid) @ cz.weights[:nn // 2]).real / self.wc
        ivals = np.arange(self.n0[r - 1] + 1, self.n0[r] + 1)
        jvals = np.arange(self.n0[s - 1] + 1, self.n0[s] + 1)
        return vals[(ivals[:, None] - jvals[None, :] + 1) - lo]

    # -- blocks --------------------------------------------------------------

    def block_rows(self, r: int) -> slice:
        return slice(self.n0[r - 1], self.n0[r])

    def rstar(self, r: int) -> int:
        return min(r, self.p - 1)


def _pieces(asm: _Assembler):
    """Each block's parts and their theta coefficients, built once per run.

    Returns ``(table, chains)``: ``table[(r, s)]`` lists block ``(r, s)``'s
    ``(part, poly)``, a part being the ``L^eps``, ``J^eps`` or ``L_p`` chain
    that a ``params._sign_windows`` window puts there (``_window_piece``),
    with the window's signed ``theta(r|eps)``; an ``L_k`` chain with
    ``Theta(r|k)``; or ``"B"``, the Toeplitz piece, with ``1 + Theta(r|s)``.
    ``chains`` lists the table's chains.  No node count enters.
    """
    p = asm.p
    blocks = [(r, s) for r in range(1, p + 1) for s in range(1, p + 1)]
    table: dict[tuple[int, int], list] = {block: [] for block in blocks}
    for k1, k2, window, signed in _sign_windows(p):
        parts = {"L": asm.leps_chain(k1, k2, window), "Lp": asm.lp_chain(),
                 "J": asm.leps_chain(k1, k2, window, last_carries_column=True)}
        polys = {r: sum(Laurent.monomial(theta_profile(r, eps), sign) for sign, eps in signed)
                 for r in range(1, p + 1)}
        for r, s in blocks:
            piece = _window_piece(p, k1, k2, r, s)
            if piece:
                table[r, s].append((parts[piece], polys[r]))
    for r, s in blocks:
        # Theta(r|k) is empty unless k < r*, so L_k and B sit on s < k < r* and s < r*
        table[r, s] += [(asm.lk_chain(k), big_theta(r, k, p)) for k in range(s + 1, asm.rstar(r))]
        if s < asm.rstar(r):
            table[r, s].append(("B", 1 + big_theta(r, s, p)))
    chains = list(dict.fromkeys(part for parts in table.values() for part, _ in parts
                                if part != "B"))
    return table, chains


def _terms(asm: _Assembler, nn: int, pieces=None) -> list:
    """Engine terms ``(rows, cols, base, poly)`` at contour node count ``nn``.

    The table's chains are evaluated in one ``chain_values`` walk over
    shared couplings, and each block takes each of its parts, cut to the
    block and conjugated by the similarity, with the part's coefficient;
    the engine sums them.  ``pieces`` is ``_pieces(asm)``, built if not given.
    """
    table, chains = pieces or _pieces(asm)
    values = asm.chain_values(chains, nn)
    terms = []
    for (r, s), parts in table.items():
        rows, cols = asm.block_rows(r), asm.block_rows(s)
        for part, poly in parts:
            base = asm.b_block(r, s, nn) if part == "B" else values[part][rows, cols]
            terms.append((rows, cols, base * asm.conj[rows, cols], poly))
    return terms


def _drop_implied_times(params: ModelParams) -> ModelParams:
    """``params`` without the times ``k`` whose event ``G(m_k, n_k) < a_k``
    a later time ``j`` implies: ``G`` is monotone along the ordered corners,
    so ``a_k >= a_j`` gives ``G(m_k, n_k) <= G(m_j, n_j) < a_j <= a_k``."""
    keep = [k for k in range(params.p) if all(params.a[k] < a for a in params.a[k + 1:])]
    return ModelParams(params.q, *(tuple(v[k] for k in keep)
                                   for v in (params.m, params.n, params.a)))


def det_theta(
    params: ModelParams,
    thetas: Sequence[complex],
    *,
    mu: float = 0.0,
    nodes: int = 256,
    radius_scale: float = 1.0,
) -> complex:
    """``det(I + A(theta) + B(theta))`` at a single ``theta`` point.

    ``mu`` sets the similarity conjugation and ``radius_scale`` multiplies
    the contour offsets of the default layout (1, two fluctuation units from
    the critical point), each kept within its admissible window; the
    determinant is invariant under both in exact arithmetic, which makes
    this the natural entry point for invariance certificates.  The ``p - 1``
    theta components (none at ``p = 1``) must be finite and non-zero (else
    ``SchemaError``).
    """
    _check_node_count("nodes", nodes)
    _check_controls(mu, radius_scale)
    asm = _Assembler(params, mu, radius_scale)
    return _det_at(asm.N, _terms(asm, nodes), params.p, thetas)


def multipoint_prob_exact(
    params: ModelParams,
    *,
    mu: float = 0.0,
    tol: float = 1e-9,
    base_nodes: int = 64,
    max_levels: int = 14,
    theta_radius: float = 2.0,
    radius_scale: float = 1.0,
    deadline: float | None = None,
) -> FredholmResult:
    """Evaluate ``P(G(m_k, n_k) < a_k for all k)`` by contour quadrature.

    Level ``l`` has ``_refined_count(base_nodes, 2, l)`` contour nodes per
    circle: ``base_nodes`` grown by ``sqrt(2)`` per level (rounded to even,
    doubling every second level).  The run returns the engine's
    ``linalg.FredholmResult``, whose ``nodes`` are the contour nodes per
    circle of the level at which two successive evaluations first agree
    within ``tol``, its index ``levels`` (``ConvergenceError`` if none up
    to index ``max_levels`` does, or if the agreed value is no
    probability).  It builds levels upward from the last one whose coupling
    bound ``coupling_ratio**nodes`` exceeds ``tol`` (``linalg._refine``),
    and reports that start as ``first_level``.  Each level's theta rule
    starts at the previous level's (8 nodes per circle on the first; ``p =
    1``, the ``L_p`` chain at threshold ``a - 1``, has none) and doubles
    until its Laurent tail is at most ``tol``.
    ``mu`` controls the similarity conjugation (the value is invariant);
    ``theta_radius`` (> 1) and ``radius_scale`` move contours without
    changing the value, ``radius_scale`` multiplying the contour offsets of
    the default layout (1, two fluctuation units from the critical point)
    within their admissible windows.  ``deadline`` is a
    ``time.monotonic()`` stamp after which ``BudgetError`` is raised.
    Every control is checked first.  Then implied times are dropped
    (``_drop_implied_times``) and ``m, n`` swapped if ``n_p > m_p``
    (``params._short_side``); the diagnostics describe that instance.  A
    threshold ``a_k <= 0`` gives the impossible event, value 0 with all
    diagnostics 0.
    """
    _check_node_count("base_nodes", base_nodes)
    _check_controls(mu, radius_scale, theta_radius)
    _check_refinement(tol, max_levels)
    params = _short_side(_drop_implied_times(params))
    if any(ak <= 0 for ak in params.a):
        return FredholmResult(0.0, 0.0, 0, 0, 0, 0, 0.0)
    asm = _Assembler(params, mu, radius_scale)
    pieces = _pieces(asm)
    ratio = asm.coupling_ratio(pieces[1])

    def nodes_at(level: int) -> int:
        return _refined_count(base_nodes, 2, level)

    return _refine(
        nodes_at, lambda level: (asm.N, _terms(asm, nodes_at(level), pieces=pieces)),
        params.p, theta_radius, tol, max_levels, deadline,
        lambda level: ratio ** nodes_at(level),
    )
