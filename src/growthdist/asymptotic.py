"""Limiting multi-time law of the rescaled growth interface.

The joint law of the interface at ``p`` ordered times ``t_1 < ... < t_p``
(observation points ``x_k``, thresholds ``xi_k``) is a contour integral

    P = (1/(2 pi i))^(p-1) oint ... oint  dtheta_1 ... dtheta_(p-1)
        det(I + F(theta)) / prod_k (theta_k - 1)

over circles ``|theta_k| = r > 1``, where ``F(theta)`` is a block kernel
acting on ``L^2(-inf,0)^(p-1) (+) L^2(0,inf)``.  Every block is a linear
combination, with Laurent-polynomial coefficients in ``theta``, of seven
families of iterated line-contour integrals of the cubic-exponent weight

    G(w | Dt, Dx, Dxi) = exp(Dt w^3/3 + Dx Dt^(2/3) w^2 - Dxi Dt^(1/3) w),

evaluated on increment triples ``(Dt, Dx, Dxi)`` between two time indices
(index 0 denotes the zero base point).  Downward-decaying factors ``1/G``
live on vertical lines left of the origin (abscissas ``-d1, -d2, -d3``),
upward factors ``G`` on lines right of it (``D`` or a ladder ``D_k`` whose
up/down ordering is dictated by a sign vector ``eps``).  All kernels carry
the conjugation ``exp(mu (v - u))``, which leaves every determinant
invariant but makes each block decay fast enough to truncate.

A family is named by its number and one index dict ``kw`` as
``_block_terms`` writes it: ``rtop``/``sbot`` (first and last time index),
``k``, ``k1``, ``k2``, ``k3``, and the ladder's interior signs ``epsw``
(``eps_{k1+1}..eps_{k2-1}``); ``_LimitKernels._chain`` turns it into the
family's lines.  Two independent evaluation paths are cross-checked:

* ``eval_basic_kernel`` computes a family directly as a chain of node
  matrices over the line contours (rows: the ``u`` exponential and its
  line weight; couplings: Cauchy factors ``1/(a - b)`` between adjacent
  lines; columns: the ``v`` exponential).
* ``airy_form_kernel`` expands every Cauchy coupling ``1/(a-b)`` as
  ``sgn(Re(a-b)) * int_0^inf exp(-lambda sgn(Re(a-b)) (a-b)) dlambda`` and
  folds each line integral into a shifted Airy transform

      A(Dt,Dx,Dxi; w) = Dt^(-1/3) exp((2/3)Dx^3 + Dx(Dxi + w/Dt^(1/3)))
                        * Ai(Dxi + Dx^2 + w/Dt^(1/3)),

  leaving a chain of real lambda-integrals.  Couplings with negative real
  separation contribute a factor ``-1`` each; the sign bookkeeping is part
  of this module's contract and is exercised by the agreement tests.

``multitime_cdf`` integrates the Fredholm determinant over the theta
circles with the trapezoidal rule (exact for the Laurent polynomial in
theta) and doubles all resolutions until two successive levels agree;
``_limit_terms`` hands the Nystrom-weighted kernel bases to the shared
theta-determinant engine in ``linalg``, which does the summing,
determinants, integration and refinement.  One ``_LimitKernels`` serves
every level of a call: it builds each line once, and per level it forms
each line coupling, row and column factor and chain prefix once, shares it
among all bases, and drops it when the level's bases are done.  At
``p = 1`` there is no theta circle and the same route returns the single
determinant ``det(I + F) = F_GUE(xi + x^2)``; ``tracy_widom`` evaluates
that marginal independently, from the closed-form Airy kernel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, SchemaError
from .integrands import (
    _walk_chains,
    airy_ai,
    airy_kernel_matrix,
    composite_gl,
    log_script_g,
    vline,
)
from .linalg import NystromGrid, _check_deadline, _det_at, _refine, block_grid, lu_det
from .params import (
    LimitParams,
    admissible_eps,
    big_theta,
    delta_txxi,
    eps_sign_exponent,
    mu_bound,
    theta_profile,
)

__all__ = [
    "LimitSettings",
    "AsymptoticResult",
    "d_for_eps",
    "check_d_assignment",
    "eval_basic_kernel",
    "airy_form_kernel",
    "fredholm_det_F",
    "multitime_cdf",
    "tracy_widom",
]


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

_QC_FLOOR = 0.15          # minimum Gaussian decay rate enforced on any line
_HW_SIGMA = 6.5           # line half-width in units of 1/sqrt(decay rate)
_NODES_PER_RADIAN = 3.4 / (2.0 * math.pi)
_MAX_LINE_NODES = 6000
_INTERIOR_VMAX = 2.0      # oscillation allowance for lines with no u/v factor
_AIRY_ARG_FLOOR = -58.0   # deepest Airy argument the evaluator certifies
_LAM_MAX = 40.0           # widest decay-variable window of the Airy-operator form
_LAM_NODES = 160          # Gauss-Legendre nodes on that window


@dataclass(frozen=True)
class LimitSettings:
    """Contour layout and resolution controls for the limit kernels.

    ``d1, d2, d3`` are the (positive) distances of the decaying lines left
    of the origin, ``d_single`` the abscissa of a lone growing line, and
    ``ladder_lo/ladder_hi`` the interval into which the eps-ordered ladder
    of growing lines is rescaled.  ``mu`` overrides the conjugation rate
    (default: the admissibility bound of the instance plus one).

    Entries of a line-contour kernel at coordinate magnitude ``L`` carry
    roundoff amplified by ``exp(d L)`` relative to fully cancelled true
    values, so the default abscissas are small enough for determinants
    over ``|u| <= extent``; analyticity makes every value independent of
    the layout.
    """

    d1: float = 0.35
    d2: float = 0.70
    d3: float = 0.35
    d_single: float = 0.45
    ladder_lo: float = 0.25
    ladder_hi: float = 1.05
    extent: float = 12.0
    block_nodes: int = 48
    theta_radius: float = 2.0
    mu: float | None = None
    tol: float = 2e-6
    max_levels: int = 2

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SchemaError(f"{name} must be finite, got {value}")
        if min(self.d1, self.d2, self.d3, self.d_single) <= 0:
            raise SchemaError("contour distances must be positive")
        if not (self.d1 < self.d2 and self.d3 < self.d2):
            raise SchemaError("need d1 < d2 and d3 < d2")
        if not (0 < self.ladder_lo < self.ladder_hi):
            raise SchemaError("need 0 < ladder_lo < ladder_hi")
        if self.extent <= 0:
            raise SchemaError(f"extent must be positive, got {self.extent}")
        if self.block_nodes < 8:
            raise SchemaError(f"block_nodes must be at least 8, got {self.block_nodes}")
        if self.theta_radius <= 1.0:
            raise SchemaError("theta_radius must exceed 1")
        if self.mu is not None and self.mu < 0:
            raise SchemaError("mu must be non-negative")


def _resolve_mu(inst: LimitParams, settings: LimitSettings) -> float:
    if settings.mu is not None:
        return float(settings.mu)
    if inst.mu is not None:
        return float(inst.mu)
    return mu_bound(inst.t, inst.x) + 1.0


# ---------------------------------------------------------------------------
# eps-ordered ladder of growing-line abscissas
# ---------------------------------------------------------------------------

def check_d_assignment(
    assignment: dict[int, float], eps: Sequence[int], k1: int, k2: int
) -> None:
    """Validate a ladder ``{k: D_k for k in k1+1..k2}`` against ``eps``.

    Requires distinct positive values with ``D_k < D_{k+1}`` exactly when
    ``eps_k = 1``; raises ``ValueError`` otherwise.
    """
    vals = [assignment[k] for k in range(k1 + 1, k2 + 1)]
    if any(v <= 0 for v in vals):
        raise ValueError("ladder values must be positive")
    if len(set(vals)) != len(vals):
        raise ValueError("ladder values must be distinct")
    for k in range(k1 + 1, k2):
        up = assignment[k] < assignment[k + 1]
        if up != (eps[k - 1] == 1):
            raise ValueError(
                f"ladder ordering violates eps at link {k}: "
                f"D_{k}={assignment[k]:g}, D_{k + 1}={assignment[k + 1]:g}, "
                f"eps_{k}={eps[k - 1]}"
            )


def d_for_eps(
    eps: Sequence[int], k1: int, k2: int, lo: float = 0.5, hi: float = 2.5
) -> dict[int, float]:
    """Abscissas ``{k: D_k}`` for the growing lines ``k in k1+1..k2``.

    Walks the binary-offset rule ``D_1 = 2^p``, ``D_{k+1} = D_k + 2^k`` if
    ``eps_k = 1`` else ``- 2^k`` (which realizes every ordering exactly
    once with distinct values), then rescales the window affinely into
    ``[lo, hi]`` so that ``exp(t D^3/3)`` stays in floating-point range.
    The affine map preserves the orderings, which is all the integrals
    depend on.
    """
    eps = tuple(int(e) for e in eps)
    if any(e not in (1, 2) for e in eps):
        raise ValueError("eps entries must be 1 or 2")
    p = len(eps) + 1
    if not 0 <= k1 < k2 <= p:
        raise ValueError(f"need 0 <= k1 < k2 <= {p}, got ({k1}, {k2})")
    ladder = [2.0 ** p]
    for k in range(1, p):
        step = 2.0 ** k
        ladder.append(ladder[-1] + (step if eps[k - 1] == 1 else -step))
    window = ladder[k1:k2]  # raw D_{k1+1} .. D_{k2}
    lov, hiv = min(window), max(window)
    if hiv == lov:
        vals = [0.5 * (lo + hi)]
    else:
        vals = [lo + (hi - lo) * (d - lov) / (hiv - lov) for d in window]
    out = {k1 + 1 + i: v for i, v in enumerate(vals)}
    check_d_assignment(out, eps, k1, k2)
    return out


# ---------------------------------------------------------------------------
# line-contour kernel evaluation
# ---------------------------------------------------------------------------

def _vmax_bucket(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 1.0
    return float(math.ceil(np.max(np.abs(arr)) + 1.0))


class _Job(NamedTuple):
    """One family chain: its links, its ``(last line, column coordinates)`` key, its sign."""

    links: tuple
    cols: tuple
    sign: float


class _LimitKernels:
    """Evaluates the basic kernel families on coordinate arrays.

    Every family is a chain of line contours: the row factor
    ``exp(-node * u)`` on the first line, Cauchy couplings ``1/(a - b)``
    between adjacent lines with each interior line's weights in between,
    and the column factor ``exp(node * v)`` on the last line.  Lines are
    truncated where the Gaussian decay of ``G^(+-1)`` reaches
    ``exp(-_HW_SIGMA^2)`` and sampled densely enough for the accumulated
    cubic phase plus the ``exp(i y u)`` rotation; they do not depend on the
    Nystrom grid, so one instance builds each line once and keeps it.  If an
    instance's tilt ``Dx`` would push some line's decay rate below
    ``_QC_FLOOR``, every abscissa is scaled up by a common factor, which
    preserves all the pairwise orderings the kernels depend on.

    ``_chain(family, kw)`` lists a family's lines.  ``kernels`` gives the
    first line the oscillation budget of ``u``, the last that of ``v`` and
    the others ``_INTERIOR_VMAX``, and walks many chains together
    (``integrands._walk_chains``), so each line coupling, row and column
    factor and chain prefix is formed once and shared, a coupling or column
    factor is dropped after its last use, and nothing grid-sized outlives
    the call.
    """

    def __init__(self, inst: LimitParams, settings: LimitSettings):
        self.inst = inst
        self.p = inst.p
        self.mu = _resolve_mu(inst, settings)
        scale = self._anchor_scale(settings)
        if scale > 1.0:
            settings = replace(
                settings,
                d1=settings.d1 * scale,
                d2=settings.d2 * scale,
                d3=settings.d3 * scale,
                d_single=settings.d_single * scale,
                ladder_lo=settings.ladder_lo * scale,
                ladder_hi=settings.ladder_hi * scale,
            )
        self.s = settings
        # line key -> (nodes, weights times G^(+-1))
        self._lines: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # -- geometry ---------------------------------------------------------

    def trip(self, k1: int, k2: int) -> tuple[float, float, float]:
        if not 0 <= k1 < k2 <= self.p:
            raise ValueError(f"need 0 <= k1 < k2 <= {self.p}, got ({k1}, {k2})")
        return delta_txxi(self.inst.t, self.inst.x, self.inst.xi, k1, k2)

    def _anchor_scale(self, s: LimitSettings) -> float:
        need = 1.0
        d_min = min(s.d1, s.d2, s.d3)
        big_d_min = min(s.d_single, s.ladder_lo)
        for k1 in range(0, self.p):
            for k2 in range(k1 + 1, self.p + 1):
                dt, dx, _ = self.trip(k1, k2)
                shift = dx * dt ** (2.0 / 3.0)
                need = max(
                    need,
                    (_QC_FLOOR + shift) / (dt * d_min),
                    (_QC_FLOOR - shift) / (dt * big_d_min),
                )
        return need

    def _line(
        self, anchor: float, trip: tuple[float, float, float], vmax: float, inverse: bool
    ) -> tuple:
        """Key of the line at ``anchor`` for ``G^(+-1)(trip)``, built on first use."""
        key = (round(anchor, 12), trip, vmax, inverse)
        if key in self._lines:
            return key
        dt, dx, dxi = trip
        qc = dt * abs(anchor) + (dx * dt ** (2.0 / 3.0)) * (1.0 if anchor > 0 else -1.0)
        if qc <= 0.02:
            raise ConvergenceError(
                f"line at {anchor:g} has no Gaussian decay (rate {qc:g})"
            )
        hw = _HW_SIGMA / math.sqrt(qc)
        phase = (2.0 / 3.0) * dt * hw ** 3 + 2.0 * hw * (
            dt * anchor * anchor
            + 2.0 * abs(anchor * dx) * dt ** (2.0 / 3.0)
            + abs(dxi) * dt ** (1.0 / 3.0)
            + vmax
        )
        n = int(max(96, min(_MAX_LINE_NODES, _NODES_PER_RADIAN * phase + 24)))
        line = vline(anchor, hw, n, panel_size=12)
        lg = log_script_g(line.nodes, dt, dx, dxi)
        wf = line.weights * np.exp(-lg if inverse else lg)
        self._lines[key] = (line.nodes, wf)
        return key

    def _ladder(
        self, k1: int, k2: int, epsw: tuple[int, ...]
    ) -> dict[int, float]:
        """Growing-line abscissas for the window ``k1+1..k2``.

        ``epsw`` holds the interior signs ``eps_{k1+1}..eps_{k2-1}``; the
        rescaled ladder depends on nothing else, so the remaining entries
        are padded with ones.
        """
        if not (0 <= k1 < k2 <= self.p and len(epsw) == k2 - k1 - 1):
            raise ValueError(f"need 0 <= k1 < k2 <= {self.p} and k2 - k1 - 1 signs, "
                             f"got ({k1}, {k2}) and epsw={tuple(epsw)}")
        full = [1] * (self.p - 1)
        for j, e in enumerate(epsw):
            full[k1 + j] = e
        return d_for_eps(full, k1, k2, self.s.ladder_lo, self.s.ladder_hi)

    # -- families: one description each -----------------------------------

    def _chain(self, family: int, kw: dict) -> tuple[float, list[tuple]]:
        """``(sign, [(abscissa, k_from, k_to, inverse), ...])`` of a family.

        Each entry is one line: its abscissa, the increment whose
        ``G^(+-1)`` it carries, and whether that is ``1/G`` (a decaying
        line).  Ladder families 5-7 run a decaying row line into the growing
        ladder ``k1+1..k2``; their first coupling ``1/(z_{k1+1} - zeta_1)`` is
        the negative of the Cauchy matrix from the row line, hence sign -1.
        """
        s, p = self.s, self.p
        if family == 1:  # single up/down pair
            return 1.0, [(s.d_single, p - 1, p, False), (-s.d1, kw["sbot"], p, True)]
        if family == 2:  # two decaying lines
            return 1.0, [(-s.d1, kw["k"], kw["rtop"], True), (-s.d2, kw["sbot"], kw["k"], True)]
        if family == 3:  # growing line, then two decaying lines
            return 1.0, [(s.d_single, p - 1, p, False), (-s.d2, kw["k"], p, True),
                          (-s.d3, kw["sbot"], kw["k"], True)]
        if family == 4:  # three decaying lines
            return 1.0, [(-s.d1, kw["k1"], kw["rtop"], True), (-s.d2, kw["k2"], kw["k1"], True),
                          (-s.d3, kw["sbot"], kw["k2"], True)]
        if family not in (5, 6, 7):
            raise ValueError(f"family must lie in 1..7, got {family}")
        k1, k2 = kw["k1"], kw["k2"]
        ladder = self._ladder(k1, k2, kw["epsw"])
        lines = [(-s.d1, k1, kw["rtop"], True)]
        lines += [(ladder[k], k - 1, k, False) for k in range(k1 + 1, k2 + 1)]
        if family == 6:  # closed by a decaying line
            lines.append((-s.d2, kw["sbot"], k2, True))
        elif family == 7:  # closed by two decaying lines
            lines.append((-s.d2, kw["k3"], k2, True))
            lines.append((-s.d3, kw["sbot"], kw["k3"], True))
        return -1.0, lines

    def kernels(self, requests: Sequence[tuple], coords: dict) -> list[np.ndarray]:
        """Family matrices for ``requests`` of ``(family, kw, ukey, vkey)``.

        ``coords[ukey]`` and ``coords[vkey]`` are the row and column
        coordinates; every matrix is conjugated by ``exp(mu (v - u))`` once
        the walk is done, each in turn, so a conjugated and an unconjugated
        copy of all of them never coexist.
        """
        jobs = []
        for family, kw, ukey, vkey in requests:
            sign, chain = self._chain(family, kw)
            # oscillation budgets: the row line carries u, the column line v
            vmax = [_vmax_bucket(coords[ukey])] + [_INTERIOR_VMAX] * (len(chain) - 2)
            vmax.append(_vmax_bucket(coords[vkey]))
            lines = [
                self._line(anchor, self.trip(k_from, k_to), budget, inverse)
                for (anchor, k_from, k_to, inverse), budget in zip(chain, vmax)
            ]
            # the first link carries the row coordinates; a later one whether
            # its weights apply (the last line's sit in the column factors)
            links = ((lines[0], ukey),) + tuple(
                (line, i < len(lines) - 2) for i, line in enumerate(lines[1:])
            )
            jobs.append(_Job(links, (lines[-1], vkey), sign))

        def rows(link: tuple) -> np.ndarray:
            nodes, wf = self._lines[link[0]]
            return np.exp(-np.outer(coords[link[1]], nodes)) * wf[None, :]

        def cols(key: tuple) -> np.ndarray:
            nodes, wf = self._lines[key[0]]
            return np.exp(np.outer(nodes, coords[key[1]])) * wf[:, None]

        values = _walk_chains(
            jobs, nodes=lambda key: self._lines[key][0], rows=rows,
            scale=lambda link: self._lines[link[0]][1] if link[1] else None, cols=cols,
        )
        for job, mat in values.items():
            u, v = coords[job.links[0][1]], coords[job.cols[1]]
            values[job] = mat * np.exp(self.mu * (v[None, :] - u[:, None]))
        return [values[job] for job in jobs]


def eval_basic_kernel(
    family: int,
    kw: dict,
    u,
    v,
    instance: LimitParams,
    *,
    settings: LimitSettings | None = None,
):
    """One basic kernel family evaluated by iterated line contours.

    ``kw`` holds the family's indices in the vocabulary ``_block_terms``
    writes: ``rtop``/``sbot``, the time indices of the first and last
    increment, and the inner indices ``k``, ``k1``, ``k2``, ``k3`` and
    ``epsw`` (the interior signs ``eps_{k1+1}..eps_{k2-1}`` of a ladder).
    They are used verbatim, which exposes every family shape at any ``p``
    for cross-checks.  Raises ``ValueError`` for an unknown family, an
    increment ``(k_from, k_to)`` outside ``0 <= k_from < k_to <= p`` or an
    ``epsw`` of the wrong length.  ``u``/``v`` may be scalars or 1-d
    arrays; the block convention places ``u < 0`` for blocks below ``p`` and
    ``u > 0`` on block ``p``.
    """
    uarr = np.atleast_1d(np.asarray(u, dtype=float))
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    kern = _LimitKernels(instance, settings or LimitSettings())
    mat = kern.kernels([(family, kw, "u", "v")], {"u": uarr, "v": varr})[0]
    if np.isscalar(u) and np.isscalar(v):
        return complex(mat[0, 0])
    return mat


# ---------------------------------------------------------------------------
# Airy-operator oracle forms
# ---------------------------------------------------------------------------

class _AiryFac(NamedTuple):
    trip: tuple[float, float, float]
    reflect: bool
    cl: float
    cr: float


def _airy_transform(
    trip: tuple[float, float, float], reflect: bool, w: np.ndarray
) -> np.ndarray:
    """Shifted Airy transform of the cubic weight along one line.

    ``A(trip; w) = t^(-1/3) exp((2/3)x^3 + x(xi + w t^(-1/3)))
    Ai(xi + x^2 + w t^(-1/3))``; ``reflect`` flips the sign of the tilt,
    which converts a decaying line into a growing one.
    """
    dt, dx, dxi = trip
    if reflect:
        dx = -dx
    t13 = dt ** (1.0 / 3.0)
    shift = w / t13
    arg = dxi + dx * dx + shift
    pref = np.exp((2.0 / 3.0) * dx ** 3 + dx * (dxi + shift)) / t13
    return pref * airy_ai(arg)


def _airy_factors(
    family: int, kw: dict, kern_trip: Callable[[int, int], tuple[float, float, float]],
    p: int,
) -> tuple[list[_AiryFac], float]:
    """Factor chain and overall sign for a family's Airy-operator form.

    Each factor links two adjacent chain variables (u, the lambda's, v)
    with coefficients ``(cl, cr)``: its value is ``A(trip; cl*a + cr*b)``.
    Couplings whose real separation is negative contribute ``-1`` to the
    sign; for the ladder those are exactly the interior links with
    ``eps_k = 1``, and the two-decaying-line couplings of the three-line
    families contribute one ``-1`` each.
    """
    if family == 1:
        return (
            [
                _AiryFac(kern_trip(p - 1, p), False, 1.0, 1.0),
                _AiryFac(kern_trip(kw["sbot"], p), True, 1.0, 1.0),
            ],
            1.0,
        )
    if family == 2:
        return (
            [
                _AiryFac(kern_trip(kw["k"], kw["rtop"]), True, -1.0, -1.0),
                _AiryFac(kern_trip(kw["sbot"], kw["k"]), True, 1.0, 1.0),
            ],
            1.0,
        )
    if family == 3:
        return (
            [
                _AiryFac(kern_trip(p - 1, p), False, 1.0, 1.0),
                _AiryFac(kern_trip(kw["k"], p), True, 1.0, 1.0),
                _AiryFac(kern_trip(kw["sbot"], kw["k"]), True, -1.0, 1.0),
            ],
            -1.0,
        )
    if family == 4:
        return (
            [
                _AiryFac(kern_trip(kw["k1"], kw["rtop"]), True, -1.0, -1.0),
                _AiryFac(kern_trip(kw["k2"], kw["k1"]), True, 1.0, 1.0),
                _AiryFac(kern_trip(kw["sbot"], kw["k2"]), True, -1.0, 1.0),
            ],
            -1.0,
        )
    # ladder families: couplings along the window carry tau_k = +1 for a
    # downward step (eps_k = 2) and -1 for an upward one (eps_k = 1)
    k1, k2 = kw["k1"], kw["k2"]
    epsw = kw["epsw"]
    tau = {k1: -1.0}
    for j, e in enumerate(epsw):
        tau[k1 + 1 + j] = 1.0 if e == 2 else -1.0
    sign = 1.0
    for k in range(k1 + 1, k2):
        sign *= tau[k]
    factors = [_AiryFac(kern_trip(k1, kw["rtop"]), True, -1.0, 1.0)]
    for k in range(k1 + 1, k2):
        factors.append(_AiryFac(kern_trip(k - 1, k), False, -tau[k - 1], tau[k]))
    if family == 5:
        factors.append(_AiryFac(kern_trip(k2 - 1, k2), False, -tau[k2 - 1], -1.0))
        return factors, sign
    factors.append(_AiryFac(kern_trip(k2 - 1, k2), False, -tau[k2 - 1], 1.0))
    if family == 6:
        factors.append(_AiryFac(kern_trip(kw["sbot"], k2), True, 1.0, 1.0))
        return factors, sign
    factors.append(_AiryFac(kern_trip(kw["k3"], k2), True, 1.0, 1.0))
    factors.append(_AiryFac(kern_trip(kw["sbot"], kw["k3"]), True, -1.0, 1.0))
    return factors, -sign


def _chain_lam_max(factors: list[_AiryFac], u: np.ndarray, v: np.ndarray) -> float:
    """Largest lambda cutoff keeping every Airy argument certified.

    The chain integrand decays superexponentially in each lambda through
    whichever factor grows with it, so shrinking the cutoff to protect the
    oscillatory factors costs only ``Ai(cutoff)``-sized truncation error.
    """
    m = len(factors) - 1
    for cap in (_LAM_MAX, 32.0, 26.0, 22.0, 18.0):
        ok = True
        for i, fac in enumerate(factors):
            left = (float(np.min(u)), float(np.max(u))) if i == 0 else (0.0, cap)
            right = (float(np.min(v)), float(np.max(v))) if i == m else (0.0, cap)
            wmin = min(fac.cl * left[0], fac.cl * left[1]) + min(
                fac.cr * right[0], fac.cr * right[1]
            )
            dt, dx, dxi = fac.trip
            if fac.reflect:
                dx = -dx
            arg = dxi + dx * dx + wmin / dt ** (1.0 / 3.0)
            if arg < _AIRY_ARG_FLOOR:
                ok = False
                break
        if ok:
            return cap
    raise ConvergenceError("Airy-form arguments exceed the evaluator's domain")


def airy_form_kernel(
    family: int,
    kw: dict,
    u,
    v,
    instance: LimitParams,
    *,
    settings: LimitSettings | None = None,
):
    """Airy-operator form of a basic kernel family (independent oracle).

    Expands every Cauchy coupling of the family as a real integral over a
    decay variable and evaluates the resulting chain of shifted Airy
    transforms by Gauss-Legendre quadrature on ``[0, _LAM_MAX]``.  ``kw``
    means what it means in :func:`eval_basic_kernel` and is checked the same
    way (``_LimitKernels._chain`` and ``trip``); the factor signs and
    coefficients come from ``_airy_factors`` alone, so agreement between the
    two paths validates both the contour layout and the coupling signs.
    """
    uarr = np.atleast_1d(np.asarray(u, dtype=float))
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    kern = _LimitKernels(instance, settings or LimitSettings())
    kern._chain(family, kw)  # the same index errors as the contour form
    factors, sign = _airy_factors(family, kw, kern.trip, kern.p)
    cap = _chain_lam_max(factors, uarr, varr)
    lam, lw = composite_gl(0.0, cap, _LAM_NODES, panel_size=12)
    grids = [uarr] + [lam] * (len(factors) - 1) + [varr]
    mat = None
    for i, fac in enumerate(factors):
        a, b = grids[i], grids[i + 1]
        block = _airy_transform(fac.trip, fac.reflect, fac.cl * a[:, None] + fac.cr * b[None, :])
        if i < len(factors) - 1:
            block = block * lw[None, :]
        mat = block if mat is None else mat @ block
    mat = sign * mat * np.exp(kern.mu * (varr[None, :] - uarr[:, None]))
    if np.isscalar(u) and np.isscalar(v):
        return complex(mat[0, 0])
    return mat


# ---------------------------------------------------------------------------
# assembly of F(theta)
# ---------------------------------------------------------------------------

class _Term(NamedTuple):
    family: int
    kw: dict
    coef: Callable[[tuple[complex, ...]], complex]


def _block_terms(p: int, r: int, s: int) -> list[_Term]:
    """All weighted kernel terms contributing to block ``(r, s)``.

    Implements the five sums entering ``F = -F0 + F1 + F2 - F3 - F4``:
    the two-decaying-line family with merged coefficient
    ``Theta(r|k) - (1 + Theta(r|k)) (1 + Theta(k|s))`` (from ``-F0 + F1``),
    the three-decaying-line family with ``-Theta(r|k1)(1 + Theta(k2|s))``
    (from ``-F3``), and for every admissible ``(k1, k2, eps)`` the signed
    ``theta(r|eps)`` ladder terms of ``F2`` plus the bracketed corrections
    of ``-F4`` (a free ``k3``, with boundary replacements when ``k2 = p``
    or ``k3 = p``).
    """
    rtop, sbot = min(r, p - 1), min(s, p - 1)
    out: list[_Term] = []

    for k in range(0, p + 1):
        if s < k < rtop:
            def coef(th, r=r, s=s, k=k):
                tr = big_theta(r, k, th, p)
                ts = big_theta(k, s, th, p)
                return tr - (1.0 + tr) * (1.0 + ts)

            out.append(_Term(2, {"k": k, "rtop": rtop, "sbot": s}, coef))

    for k1 in range(0, p + 1):
        for k2 in range(0, p + 1):
            if k1 < rtop and s < k2 < k1:
                def coef(th, r=r, s=s, k1=k1, k2=k2):
                    return -big_theta(r, k1, th, p) * (
                        1.0 + big_theta(k2, s, th, p)
                    )

                out.append(
                    _Term(4, {"k1": k1, "rtop": rtop, "k2": k2, "sbot": s}, coef)
                )

    for k1 in range(0, p + 1):
        for k2 in range(k1 + 1, p + 1):
            for eps in admissible_eps(k1, k2, p):
                sgn = (-1.0) ** (
                    eps_sign_exponent(eps, k1, k2, p) + (1 if k2 == p else 0)
                )
                epsw = tuple(eps[k - 1] for k in range(k1 + 1, k2))

                def base(th, r=r, eps=eps, sgn=sgn):
                    return sgn * theta_profile(r, eps, th)

                if k1 < rtop and s == k2 < p:
                    out.append(
                        _Term(5, {"k1": k1, "k2": k2, "epsw": epsw, "rtop": rtop}, base)
                    )
                if k1 < rtop and sbot < k2:
                    out.append(
                        _Term(
                            6,
                            {"k1": k1, "k2": k2, "epsw": epsw, "rtop": rtop,
                             "sbot": sbot},
                            base,
                        )
                    )
                if k1 == p - 1 and k2 == p and r == p:
                    out.append(_Term(1, {"sbot": sbot}, base))

                for k3 in range(0, p + 1):
                    if k1 < rtop and s < k3 < k2:
                        def coef(th, s=s, k3=k3, base=base):
                            return -base(th) * (1.0 + big_theta(k3, s, th, p))

                        out.append(
                            _Term(
                                7,
                                {"k1": k1, "k2": k2, "k3": k3, "epsw": epsw,
                                 "rtop": rtop, "sbot": s},
                                coef,
                            )
                        )
                    if k2 == p and k3 == p - 1 and k1 < rtop and s < p - 1:
                        def coef(th, s=s, base=base):
                            return base(th) * (1.0 + big_theta(p, s, th, p))

                        out.append(
                            _Term(
                                7,
                                {"k1": k1, "k2": p, "k3": p - 1, "epsw": epsw,
                                 "rtop": rtop, "sbot": s},
                                coef,
                            )
                        )
                    if k2 < p and k3 == p and k1 < rtop and sbot < k2:
                        def coef(th, s=s, k2=k2, base=base):
                            return -base(th) * (1.0 + big_theta(k2, s, th, p))

                        out.append(
                            _Term(
                                6,
                                {"k1": k1, "k2": k2, "epsw": epsw, "rtop": rtop,
                                 "sbot": sbot},
                                coef,
                            )
                        )
                    if k1 == p - 1 and k2 == p and r == p and s < k3 < p:
                        def coef(th, s=s, k3=k3, base=base):
                            return -base(th) * (1.0 + big_theta(k3, s, th, p))

                        out.append(_Term(3, {"k": k3, "sbot": s}, coef))
                    if (
                        k1 == p - 1 and k2 == p and k3 == p - 1 and r == p
                        and s < p - 1
                    ):
                        def coef(th, s=s, base=base):
                            return base(th) * (1.0 + big_theta(p, s, th, p))

                        out.append(_Term(3, {"k": p - 1, "sbot": s}, coef))
    return out


def _limit_terms(
    kern: _LimitKernels, grid: NystromGrid, deadline: float | None = None,
) -> list:
    """Engine terms ``(rows, cols, base, coefs)`` of ``F(theta)`` on a Nystrom grid.

    Each block ``(r, s)`` is a theta-weighted sum of basic-family matrices;
    distinct terms frequently share the same matrix (same family, same
    resolved indices, same coordinate blocks), so each base is evaluated
    once, with the Nystrom weights ``W^(1/2) . W^(1/2)`` folded in, and
    referenced by groups of coefficient functions.  All bases of the grid
    come from one ``kern.kernels`` call, which forms each line coupling, row
    and column factor and chain prefix once, drops each coupling after its
    last use, and keeps nothing grid-sized once the bases are built.
    """
    p = kern.p
    # blocks below p share one coordinate array, block p has the other
    coords = {r == p: grid.nodes[grid.slices[r - 1]] for r in range(1, p + 1)}
    index: dict[tuple, int] = {}
    requests, slices, blocks = [], [], []
    for r in range(1, p + 1):
        rows = grid.slices[r - 1]
        for s in range(1, p + 1):
            cols = grid.slices[s - 1]
            bucket: dict[int, list] = {}
            for term in _block_terms(p, r, s):
                key = (term.family, tuple(sorted(term.kw.items())), r == p, s == p)
                if key not in index:
                    index[key] = len(requests)
                    requests.append((term.family, term.kw, r == p, s == p))
                    slices.append((rows, cols))
                bucket.setdefault(index[key], []).append(term.coef)
            blocks.append((rows, cols, bucket))
    _check_deadline(deadline, "assembly")
    sw = np.sqrt(grid.weights)
    mats = kern.kernels(requests, coords)
    mats.reverse()
    bases = []
    for rows, cols in slices:
        base = mats.pop()  # each kernel matrix is dropped once weighted
        if not np.all(np.isfinite(base)):
            raise ValueError("kernel values must be finite")
        bases.append(sw[rows, None] * base * sw[None, cols])
    return [
        (rows, cols, bases[idx], coefs)
        for rows, cols, bucket in blocks for idx, coefs in bucket.items()
    ]


def fredholm_det_F(
    theta,
    instance: LimitParams,
    grid: NystromGrid | None = None,
    *,
    settings: LimitSettings | None = None,
) -> complex:
    """``det(I + F(theta))`` on the direct-sum space via Nystrom quadrature."""
    inst = instance
    settings = settings or LimitSettings()
    theta = np.atleast_1d(theta)
    if len(theta) != inst.p - 1:
        raise SchemaError(f"theta must have length {inst.p - 1}")
    if grid is None:
        grid = block_grid(inst.p, settings.extent, settings.block_nodes)
    return _det_at(len(grid), _limit_terms(_LimitKernels(inst, settings), grid), theta)


# ---------------------------------------------------------------------------
# the theta integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticResult:
    """Value and diagnostics of a limit-law evaluation."""

    value: float
    imag_part: float
    theta_nodes: int
    grid_nodes: int
    levels: int
    converged: bool
    runtime_ms: float


def multitime_cdf(
    instance: LimitParams,
    settings: LimitSettings | None = None,
    *,
    deadline: float | None = None,
) -> AsymptoticResult:
    """Joint probability that the rescaled interface stays below ``xi``.

    Integrates ``det(I + F(theta)) / prod (theta_k - 1)`` over the product
    of theta circles.  Level ``l`` has ``settings.block_nodes * 2**l``
    Nystrom nodes per block and the engine's theta rule, ``8 * 2**l`` nodes
    per circle (exact for Laurent degrees in ``[-4 * 2**l, 4 * 2**l)``);
    levels double, at most ``settings.max_levels`` times, until two
    successive levels agree within ``settings.tol``; raises
    ``ConvergenceError`` otherwise.
    """
    start = time.perf_counter()
    inst = instance
    settings = settings or LimitSettings()
    kern = _LimitKernels(inst, settings)

    def grid_at(level: int) -> NystromGrid:
        return block_grid(inst.p, settings.extent, settings.block_nodes * 2 ** level)

    def terms_at(level: int) -> tuple[int, list]:
        grid = grid_at(level)
        return len(grid), _limit_terms(kern, grid, deadline)

    value, _, level, n_theta = _refine(
        terms_at, inst.p, settings.theta_radius, settings.tol, settings.max_levels, deadline,
    )
    return AsymptoticResult(
        value=float(value.real),
        imag_part=float(value.imag),
        theta_nodes=n_theta,  # per circle; p = 1 has no circle
        grid_nodes=len(grid_at(level)),
        levels=level,
        converged=True,
        runtime_ms=1e3 * (time.perf_counter() - start),
    )


# ---------------------------------------------------------------------------
# Tracy-Widom marginal (independent oracle)
# ---------------------------------------------------------------------------

def _fgue(s: float, nodes: int = 96, span: float = 40.0) -> float:
    """``det(I - K_Ai)`` on ``(s, infinity)`` by Nystrom quadrature."""
    x, w = composite_gl(s, s + span, nodes, panel_size=12)
    kern = airy_kernel_matrix(x, x)
    sw = np.sqrt(w)
    mat = np.eye(len(x)) - sw[:, None] * kern * sw[None, :]
    return float(lu_det(mat).real)


def tracy_widom(s: float, *, nodes: int = 96) -> float:
    """GUE Tracy-Widom distribution function ``F_GUE(s)`` for s in [-10, 6]."""
    s = float(s)
    if not -10.0 <= s <= 6.0:
        raise SchemaError(f"tracy_widom argument must lie in [-10, 6], got {s}")
    if nodes < 1:
        raise SchemaError(f"nodes must be at least 1, got {nodes}")
    return _fgue(s, nodes=nodes)
