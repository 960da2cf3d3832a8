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
live on lines left of the origin (abscissas ``-d1, -d2, -d3``), upward
factors ``G`` on lines right of it (``D`` or a ladder ``D_k`` whose up/down
ordering is dictated by a sign vector ``eps``).  Each line is an upward
wedge: two rays from its abscissa, mirror images across the real axis,
tilted from vertical toward the steepest descent of the cubic, so that
the wedge of ``G`` opens right and that of ``1/G`` left.  Translates of one
wedge never meet, so every ordering the kernels need survives.  All
kernels carry the conjugation ``exp(mu (v - u))``, which leaves every
determinant invariant but makes each block decay fast enough to truncate.

A family is named by its number and one index dict ``kw`` as
``_block_terms`` writes it: ``rtop``/``sbot`` (first and last time index),
``k``, ``k1``, ``k2``, ``k3``, and the ladder's interior signs ``epsw``
(``eps_{k1+1}..eps_{k2-1}``); ``_LimitKernels._chain`` turns it into the
family's lines.  Two private test oracles evaluate one family on its own,
by independent paths that the tests cross-check:

* ``_eval_basic_kernel`` computes a family directly as a chain of node
  matrices over the line contours (rows: the ``u`` exponential and its
  line weight; couplings: Cauchy factors ``1/(a - b)`` between adjacent
  lines; columns: the ``v`` exponential).
* ``_airy_form_kernel`` expands every Cauchy coupling ``1/(a-b)`` as
  ``sgn(Re(a-b)) * int_0^inf exp(-lambda sgn(Re(a-b)) (a-b)) dlambda`` and
  folds each line integral into a shifted Airy transform

      A(Dt,Dx,Dxi; w) = Dt^(-1/3) exp((2/3)Dx^3 + Dx(Dxi + w/Dt^(1/3)))
                        * Ai(Dxi + Dx^2 + w/Dt^(1/3)),

  leaving a chain of real lambda-integrals.  Couplings with negative real
  separation contribute a factor ``-1`` each; the sign bookkeeping is part
  of this module's contract and is exercised by the agreement tests.

``multitime_cdf`` integrates the Fredholm determinant over the theta
circles with the trapezoidal rule (exact for the Laurent polynomial in
theta), certifies each rule from its Laurent tail and grows the Nystrom
grid until two successive levels agree;
``_limit_terms`` hands the Nystrom-weighted kernel bases to the shared
theta-determinant engine in ``linalg``, which does the summing,
determinants, integration and refinement, and builds the
``linalg.FredholmResult`` that ``multitime_cdf`` returns, its ``nodes``
counted per Nystrom block.  One ``_LimitKernels`` serves
every level of a call: it builds each line once, and per walk it forms
each line coupling, row and column factor once and each chain prefix
once per level, on one node of each conjugate pair, shares it among all
bases, and drops it when the walk's bases are done.  Levels 0 and 1 share
one walk, so a run that ends at level 1 forms each coupling once.  Every
base is real.  At ``p = 1`` there is
no theta circle and the same route returns the single determinant
``det(I + F) = F_GUE(xi + x^2)``; ``tracy_widom`` evaluates that marginal
independently, from the closed-form Airy kernel.

``LimitSettings`` holds the controls the ``asymptotic`` subcommand can
override: ``extent``, ``block_nodes``, ``theta_radius``, ``mu``, ``tol`` and
``max_levels``.  The line layout is the module constant ``_LAYOUT``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, SchemaError
from .integrands import (
    _Chain,
    _walk_chains,
    airy_ai,
    airy_kernel_matrix,
    composite_gl,
    log_script_g,
    wedge,
)
from .linalg import (
    _PANEL,
    FredholmResult,
    NystromGrid,
    _check_deadline,
    _det_at,
    _refine,
    _refined_count,
    block_grid,
    lu_det,
)
from .params import (
    Laurent,
    LimitParams,
    _sign_windows,
    _window_piece,
    big_theta,
    delta_txxi,
    mu_bound,
    theta_profile,
)

__all__ = [
    "LimitSettings",
    "fredholm_det_F",
    "multitime_cdf",
    "tracy_widom",
]


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

_QC_FLOOR = 0.15          # minimum Gaussian decay rate enforced on any line
_HW_SIGMA = 6.5           # a line is cut where its integrand falls below exp(-_HW_SIGMA^2)
_RAY_ANGLE = math.radians(75.0)  # a growing line's rays; a decaying line's mirror them
_NODES_PER_RADIAN = 3.4 / (2.0 * math.pi)
_PANEL_PER_GAP = 2.0      # longest panel, in gaps to the nearest coupled line
_MAX_PANEL = 1.0          # and in absolute terms
_MAX_LINE_NODES = 6000    # nodes of a whole wedge, at most
_INTERIOR_VMAX = 2.0      # oscillation allowance for lines with no u/v factor
_AIRY_ARG_FLOOR = -58.0   # deepest Airy argument the evaluator certifies
_LAM_MAX = 40.0           # widest decay-variable window of the Airy-operator form
_LAM_NODES = 160          # Gauss-Legendre nodes on that window


class _Layout(NamedTuple):
    """Abscissas of the limit kernels' lines, the vertices of their wedges.

    ``d1, d2, d3`` are the (positive) distances of the decaying lines left
    of the origin, ``d_single`` the abscissa of a lone growing line, and
    ``ladder_lo/ladder_hi`` the interval into which the eps-ordered ladder
    of growing lines is rescaled.  The kernels need ``d1 < d2``,
    ``d3 < d2`` and ``0 < ladder_lo < ladder_hi``; analyticity makes every
    value independent of the layout otherwise.
    """

    d1: float
    d2: float
    d3: float
    d_single: float
    ladder_lo: float
    ladder_hi: float


# Entries of a line-contour kernel at coordinate magnitude L carry roundoff
# amplified by exp(d L) relative to fully cancelled true values, so the
# abscissas are kept small enough for determinants over |u| <= extent.
# ``_LimitKernels`` translates them, never scales, so they stay near the
# origin, where the cubic weights are small and the bases real to rounding.
_LAYOUT = _Layout(d1=0.35, d2=0.70, d3=0.35, d_single=0.45, ladder_lo=0.25, ladder_hi=1.05)


@dataclass(frozen=True)
class LimitSettings:
    """Truncation, resolution and refinement controls of the limit law.

    ``extent`` truncates each half-line, ``block_nodes`` sets the Nystrom
    nodes per block of level 0, ``theta_radius`` the radius of the theta
    circles, ``tol`` and ``max_levels`` the refinement, and ``mu``
    overrides the conjugation rate (default: the instance's ``mu``, else
    the admissibility bound of the instance plus one).
    """

    extent: float = 12.0
    block_nodes: int = 48
    theta_radius: float = 2.0
    mu: float | None = None
    tol: float = 2e-6
    max_levels: int = 4

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SchemaError(f"{name} must be finite, got {value}")
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
# line-contour kernel evaluation
# ---------------------------------------------------------------------------

def _vmax_bucket(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 1.0
    return float(math.ceil(np.max(np.abs(arr)) + 1.0))


class _LimitKernels:
    """Evaluates the basic kernel families on coordinate arrays.

    Every family is a chain of line contours: the row factor
    ``exp(-node * u)`` on the first line, Cauchy couplings ``1/(a - b)``
    between adjacent lines with each interior line's weights in between,
    and the column factor ``exp(node * v)`` on the last line.  A line is a
    wedge whose rays leave its abscissa at ``_RAY_ANGLE`` from the positive
    real axis for ``G`` and from the negative one for ``1/G``, between
    vertical and the cubic's steepest descent (``pi/3``).  Each ray is cut
    where ``log|G^(+-1)| + vmax |Re z|``, a cubic in the distance along it,
    falls below ``-_HW_SIGMA^2`` for good, and carries whole 12-node
    Gauss-Legendre panels: enough for the variation of the exponent and of
    ``exp(-z u)`` (``_NODES_PER_RADIAN``), and none longer than
    ``_PANEL_PER_GAP`` times the gap to the nearest line coupled to it or
    than ``_MAX_PANEL``.  The lines do not depend on the Nystrom grid, so
    one instance builds each line once and keeps it, and a line whose
    weights overflow raises ``ConvergenceError`` when it is built.  If an
    instance's tilt ``Dx`` would push some line's Gaussian decay rate across
    the real axis below ``_QC_FLOOR``, the decaying lines shift left, or the
    growing lines right, by the least common amount that restores it; a
    shift keeps every ordering and gap the kernels depend on.

    A line keeps one node of each conjugate pair, those of its lower ray.
    The upper ray's weights are ``e^(i phi) dr / (2 pi i)``, the lower
    ray's their conjugates, so the walks stay real.  ``_chain(family, kw)``
    lists a family's lines.  ``kernels`` gives the first line the
    oscillation budget of ``u``, the last that of ``v`` and the others
    ``_INTERIOR_VMAX``, and walks many chains together on the kept nodes
    (``_walk_chains``), so each line coupling, row and column factor and
    chain prefix is formed once and shared, a coupling or column factor is
    dropped after its last use, and nothing grid-sized outlives the call.
    Every result is real.
    """

    def __init__(self, inst: LimitParams, settings: LimitSettings):
        self.inst = inst
        self.p = inst.p
        self.mu = _resolve_mu(inst, settings)
        # a line for G^(+-1) of a trip decays at _QC_FLOOR from |a| = _QC_FLOOR/dt +- dx/dt^(1/3)
        need = [(_QC_FLOOR / dt, dx / dt ** (1.0 / 3.0)) for dt, dx, _ in
                (self.trip(k1, k2) for k2 in range(1, self.p + 1) for k1 in range(k2))]
        d1, d2, d3, d_single, lo, hi = _LAYOUT
        down = max(0.0, max(f + s for f, s in need) - min(d1, d2, d3))
        up = max(0.0, max(f - s for f, s in need) - min(d_single, lo))
        self.layout = _Layout(d1 + down, d2 + down, d3 + down, d_single + up, lo + up, hi + up)
        self._gaps = self._coupled_gaps()
        # line key -> (nodes, weights times G^(+-1))
        self._lines: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # -- geometry ---------------------------------------------------------

    def trip(self, k1: int, k2: int) -> tuple[float, float, float]:
        if not 0 <= k1 < k2 <= self.p:
            raise ValueError(f"need 0 <= k1 < k2 <= {self.p}, got ({k1}, {k2})")
        return delta_txxi(self.inst.t, self.inst.x, self.inst.xi, k1, k2)

    def _line(
        self, anchor: float, trip: tuple[float, float, float], vmax: float, inverse: bool
    ) -> tuple:
        """Key of the wedge at ``anchor`` for ``G^(+-1)(trip)``, built on first use."""
        key = (round(anchor, 12), trip, vmax, inverse)
        if key in self._lines:
            return key
        dt, dx, dxi = trip
        angle = math.pi - _RAY_ANGLE if inverse else _RAY_ANGLE
        ray = cmath.exp(1j * angle)
        # Taylor coefficients of log G^(+-1)(anchor + r ray) in r
        a, b2, b1 = anchor, dx * dt ** (2.0 / 3.0), dxi * dt ** (1.0 / 3.0)
        taylor = (-1.0 if inverse else 1.0) * np.array(
            [dt * a ** 3 / 3.0 + b2 * a * a - b1 * a, dt * a * a + 2.0 * b2 * a - b1,
             dt * a + b2, dt / 3.0]) * ray ** np.arange(4)
        # cut where log|G^(+-1)| + vmax |Re z| falls below -_HW_SIGMA^2 for good
        bound = taylor.real + vmax * np.array([abs(a), abs(ray.real), 0.0, 0.0])
        bound[0] += _HW_SIGMA ** 2
        roots = np.roots(bound[::-1])
        cuts = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
        longest = min(_PANEL_PER_GAP * self._gaps[key[0]], _MAX_PANEL)
        length = max(cuts.max(initial=0.0), longest)
        # enough panels for the variation of the exponent and of exp(-z u)
        change = np.abs(taylor[1:]) @ length ** np.arange(1, 4) + vmax * length
        panels = max(math.ceil(length / longest), math.ceil(_NODES_PER_RADIAN * change / _PANEL) + 1)
        line = wedge(anchor, angle, length, min(panels, _MAX_LINE_NODES // (2 * _PANEL)), _PANEL)
        half = len(line) // 2  # the other half are the conjugates
        with np.errstate(over="ignore", invalid="ignore"):
            lg = log_script_g(line.nodes[:half], dt, dx, dxi)
            wf = line.weights[:half] * np.exp(-lg if inverse else lg)
        if not np.all(np.isfinite(wf)):
            raise ConvergenceError("kernel values overflow: a line's weights exceed range")
        self._lines[key] = (line.nodes[:half], wf)
        return key

    def _coupled_gaps(self) -> dict[float, float]:
        """``{abscissa: least distance to a line coupled to it}`` over every chain shape."""
        s, gaps = self.layout, {}
        chains = [[-s.d1, -s.d2, -s.d3], [s.d_single, -s.d1], [s.d_single, -s.d2, -s.d3]]
        for k1, k2, epsw, _ in _sign_windows(self.p):
            ladder = self._ladder(k1, k2, epsw)
            chains.append([-s.d1] + [ladder[k] for k in range(k1 + 1, k2 + 1)] + [-s.d2])
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                for z in (a, b):
                    gaps[round(z, 12)] = min(gaps.get(round(z, 12), math.inf), abs(a - b))
        return gaps

    def _ladder(
        self, k1: int, k2: int, epsw: tuple[int, ...]
    ) -> dict[int, float]:
        """Growing-line abscissas ``{k: D_k}`` for the window ``k1+1..k2``.

        ``epsw`` holds the interior signs ``eps_{k1+1}..eps_{k2-1}``.  The
        binary-offset walk ``D_0 = 0``, ``D_{j+1} = D_j + 2^j`` if the sign
        is 1 else ``- 2^j``, realizes every ordering exactly once with
        distinct values; it is mapped affinely onto ``[ladder_lo,
        ladder_hi]`` so that ``exp(t D^3/3)`` stays in floating-point range.
        The map preserves the orderings, which is all the integrals depend
        on.  A lone line sits at the middle of the range.
        """
        if not (0 <= k1 < k2 <= self.p and len(epsw) == k2 - k1 - 1):
            raise ValueError(f"need 0 <= k1 < k2 <= {self.p} and k2 - k1 - 1 signs, "
                             f"got ({k1}, {k2}) and epsw={tuple(epsw)}")
        lo, hi = self.layout.ladder_lo, self.layout.ladder_hi
        walk = [0.0]
        for j, e in enumerate(epsw):
            walk.append(walk[-1] + (2.0 ** j if e == 1 else -(2.0 ** j)))
        lov, hiv = min(walk), max(walk)
        if hiv == lov:
            return {k2: 0.5 * (lo + hi)}
        return {k1 + 1 + i: lo + (hi - lo) * (d - lov) / (hiv - lov)
                for i, d in enumerate(walk)}

    # -- families: one description each -----------------------------------

    def _chain(self, family: int, kw: dict) -> tuple[float, list[tuple]]:
        """``(sign, [(abscissa, k_from, k_to, inverse), ...])`` of a family.

        Each entry is one line: its abscissa, the increment whose
        ``G^(+-1)`` it carries, and whether that is ``1/G`` (a decaying
        line).  Ladder families 5-7 run a decaying row line into the growing
        ladder ``k1+1..k2``; their first coupling ``1/(z_{k1+1} - zeta_1)`` is
        the negative of the Cauchy matrix from the row line, hence sign -1.
        """
        s, p = self.layout, self.p
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

    def kernels(
        self, requests: Sequence[tuple], coords: dict, weights: dict | None = None,
    ) -> list[np.ndarray]:
        """Family matrices for ``requests`` of ``(family, kw, ukey, vkey)``.

        ``coords[ukey]`` and ``coords[vkey]`` are the row and column
        coordinates; every matrix is real.  Once the walk is done, each
        distinct matrix is conjugated by ``exp(mu (v - u))``, each in turn,
        so a conjugated and an unconjugated copy of all of them never
        coexist; given ``weights`` keyed like ``coords``, the conjugated
        copy's rows and columns are then scaled in place by
        ``weights[ukey]`` and ``weights[vkey]``.  Requests that resolve to
        the same chain get the same array, conjugated and weighted once.
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
            jobs.append(_Chain(links, (lines[-1], vkey), sign))

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
            ukey, vkey = job.links[0][1], job.cols[1]
            u, v = coords[ukey], coords[vkey]
            values[job] = mat = mat * np.exp(self.mu * (v[None, :] - u[:, None]))
            if weights is not None:
                mat *= weights[ukey][:, None]
                mat *= weights[vkey][None, :]
        return [values[job] for job in jobs]


def _eval_basic_kernel(family: int, kw: dict, u, v, instance: LimitParams) -> np.ndarray:
    """One basic kernel family evaluated by iterated line contours (test oracle).

    ``kw`` holds the family's indices in the vocabulary ``_block_terms``
    writes: ``rtop``/``sbot``, the time indices of the first and last
    increment, and the inner indices ``k``, ``k1``, ``k2``, ``k3`` and
    ``epsw`` (the interior signs ``eps_{k1+1}..eps_{k2-1}`` of a ladder).
    They are used verbatim, which exposes every family shape at any ``p``
    for cross-checks.  Raises ``ValueError`` for an unknown family, an
    increment ``(k_from, k_to)`` outside ``0 <= k_from < k_to <= p`` or an
    ``epsw`` of the wrong length.  ``u``/``v`` are 1-d arrays (a scalar is
    one point) and the result is the ``len(u) x len(v)`` matrix; the block
    convention places ``u < 0`` for blocks below ``p`` and ``u > 0`` on
    block ``p``.
    """
    uarr = np.atleast_1d(np.asarray(u, dtype=float))
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    kern = _LimitKernels(instance, LimitSettings())
    return kern.kernels([(family, kw, "u", "v")], {"u": uarr, "v": varr})[0]


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

    The chain integrand decays superexponentially in each lambda, through
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


def _airy_form_kernel(family: int, kw: dict, u, v, instance: LimitParams) -> np.ndarray:
    """Airy-operator form of a basic kernel family (independent test oracle).

    Expands every Cauchy coupling of the family as a real integral over a
    decay variable and evaluates the resulting chain of shifted Airy
    transforms by Gauss-Legendre quadrature on ``[0, _LAM_MAX]``.  ``kw``
    means what it means in :func:`_eval_basic_kernel` and is checked the same
    way (``_LimitKernels._chain`` and ``trip``); the factor signs and
    coefficients come from ``_airy_factors`` alone, so agreement between the
    two paths validates both the contour layout and the coupling signs.
    """
    uarr = np.atleast_1d(np.asarray(u, dtype=float))
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    kern = _LimitKernels(instance, LimitSettings())
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
    return sign * mat * np.exp(kern.mu * (varr[None, :] - uarr[:, None]))


# ---------------------------------------------------------------------------
# assembly of F(theta)
# ---------------------------------------------------------------------------

def _block_terms(p: int, r: int, s: int) -> list[tuple[int, dict, Laurent]]:
    """All weighted kernel terms ``(family, kw, poly)`` contributing to block ``(r, s)``.

    Implements the five sums entering ``F = -F0 + F1 + F2 - F3 - F4``:
    the two-decaying-line family with merged coefficient
    ``Theta(r|k) - (1 + Theta(r|k)) (1 + Theta(k|s))`` (from ``-F0 + F1``),
    the three-decaying-line family with ``-Theta(r|k1)(1 + Theta(k2|s))``
    (from ``-F3``), and for every window of ``params._sign_windows`` the
    signed ``theta(r|eps)`` ladder terms of ``F2``, summed over the window
    once, plus the bracketed corrections of ``-F4`` (a free ``k3``, with
    boundary replacements when ``k2 = p`` or ``k3 = p``).  The walk's signs
    are the finite-size ones; a limit ladder's couplings carry
    ``(-1)^(k2-k1-1)`` more and its chain sign ``-1``, so a window takes
    ``(-1)^(k1+k2)``, the per-eps limit sign ``(-1)^(eps[k1,k2] + [k2=p])``.
    Families 6, 5 and 1 sit where ``L^eps``, ``J^eps`` and ``L_p`` do
    (``params._window_piece``).  Each coefficient is a ``Laurent`` polynomial.
    """
    rtop, sbot = min(r, p - 1), min(s, p - 1)
    out = []

    def add(family: int, poly: Laurent, **kw) -> None:
        out.append((family, kw, poly))

    for k in range(s + 1, rtop):
        tr, ts = big_theta(r, k, p), big_theta(k, s, p)
        add(2, tr - (1 + tr) * (1 + ts), k=k, rtop=rtop, sbot=s)

    for k1 in range(rtop):
        for k2 in range(s + 1, k1):
            add(4, -big_theta(r, k1, p) * (1 + big_theta(k2, s, p)),
                k1=k1, rtop=rtop, k2=k2, sbot=s)

    for k1, k2, window, signed in _sign_windows(p):
        piece = _window_piece(p, k1, k2, r, s)
        if not piece and k1 >= rtop:
            continue
        base = sum(Laurent.monomial(theta_profile(r, eps), (-1) ** (k1 + k2) * sign)
                   for sign, eps in signed)
        ladder = {"k1": k1, "k2": k2, "epsw": window, "rtop": rtop}
        if piece:
            family, kw = {"L": (6, {**ladder, "sbot": sbot}), "J": (5, ladder),
                          "Lp": (1, {"sbot": sbot})}[piece]
            add(family, base, **kw)
        # -F4: family 7 continues a ladder row (k1 < r*), family 3 the line of L_p
        for k3 in range(s + 1, k2):
            family, kw = ((3, {"k": k3, "sbot": s}) if piece == "Lp"
                          else (7, {**ladder, "k3": k3, "sbot": s}))
            add(family, -base * (1 + big_theta(k3, s, p)), **kw)
            if k2 == p and k3 == p - 1:
                add(family, base * (1 + big_theta(p, s, p)), **kw)
        if piece == "L" and k2 < p:
            add(6, -base * (1 + big_theta(k2, s, p)), **ladder, sbot=sbot)
    return out


def _limit_terms(
    kern: _LimitKernels, grids: Sequence[NystromGrid], deadline: float | None = None,
) -> list[list]:
    """Engine terms ``(rows, cols, base, poly)`` of ``F(theta)``, one list per Nystrom grid.

    Each block ``(r, s)`` is a theta-weighted sum of basic-family matrices;
    distinct terms frequently share the same matrix (same family, same
    resolved indices, same coordinate blocks), so each base is evaluated
    once per grid, with the Nystrom weights ``W^(1/2) . W^(1/2)`` folded in,
    and carries the sum of its terms' ``Laurent`` coefficients.  The bases
    of every grid come from one ``kern.kernels`` call, whose coordinate keys
    ``(i, r == p)`` carry the grid's position ``i``: each grid keeps its own
    jobs, and the walk forms each line coupling, row and column factor once
    for all grids and each chain prefix once per grid.  ``kern.kernels``
    weights each distinct kernel matrix in place, once, also when two
    requests resolve to the same chain (equal time increments), so the
    bases are all that outlive the call.
    """
    p = kern.p
    # per grid, blocks below p share one coordinate array and weights, block p has the other
    coords = {(i, r == p): grid.nodes[grid.slices[r - 1]]
              for i, grid in enumerate(grids) for r in range(1, p + 1)}
    weights = {(i, r == p): np.sqrt(grid.weights[grid.slices[r - 1]])
               for i, grid in enumerate(grids) for r in range(1, p + 1)}
    table = {(r, s): _block_terms(p, r, s) for r in range(1, p + 1) for s in range(1, p + 1)}
    index: dict[tuple, int] = {}
    requests, levels = [], []
    for i, grid in enumerate(grids):
        blocks = []
        for r in range(1, p + 1):
            rows = grid.slices[r - 1]
            for s in range(1, p + 1):
                cols = grid.slices[s - 1]
                bucket: dict[int, Laurent] = {}
                for family, kw, poly in table[r, s]:
                    key = (i, family, tuple(sorted(kw.items())), r == p, s == p)
                    if key not in index:
                        index[key] = len(requests)
                        requests.append((family, kw, (i, r == p), (i, s == p)))
                    bucket[index[key]] = bucket.get(index[key], 0) + poly
                blocks.append((rows, cols, bucket))
        levels.append(blocks)
    _check_deadline(deadline, "assembly")
    bases = kern.kernels(requests, coords, weights)
    if not all(np.all(np.isfinite(base)) for base in bases):
        raise ConvergenceError("kernel values overflow: a line's weights exceed range")
    return [
        [(rows, cols, bases[idx], poly) for rows, cols, bucket in blocks
         for idx, poly in bucket.items()]
        for blocks in levels
    ]


def fredholm_det_F(
    theta, instance: LimitParams, *, settings: LimitSettings | None = None
) -> complex:
    """``det(I + F(theta))`` on the direct-sum space via Nystrom quadrature
    on the first-level grid of ``settings`` (``extent``, ``block_nodes``).

    ``theta`` has ``p - 1`` finite, non-zero components (else ``SchemaError``).
    """
    inst = instance
    settings = settings or LimitSettings()
    grid = block_grid(inst.p, settings.extent, settings.block_nodes)
    (terms,) = _limit_terms(_LimitKernels(inst, settings), [grid])
    return _det_at(len(grid), terms, inst.p, np.atleast_1d(theta))


# ---------------------------------------------------------------------------
# the theta integral
# ---------------------------------------------------------------------------

def multitime_cdf(
    instance: LimitParams,
    settings: LimitSettings | None = None,
    *,
    deadline: float | None = None,
) -> FredholmResult:
    """Joint probability that the rescaled interface stays below ``xi``.

    Integrates ``det(I + F(theta)) / prod (theta_k - 1)`` over the product
    of theta circles.  Level ``l`` has ``_refined_count(block_nodes, 12,
    l)`` Nystrom nodes per block: whole 12-node panels, growing by
    ``sqrt(2)`` per level (4, 6, 8, 11, 16, .. panels from the default 48
    nodes).  Levels are refined, at most ``settings.max_levels`` times,
    until two successive levels agree within ``settings.tol``.  Levels 0
    and 1, which are compared in any case, are built by one
    ``_limit_terms`` walk, and level 1's terms wait until level 0 is
    integrated; each later level is built alone, when the comparison before
    it fails.  Each level's theta rule starts at the previous level's (8
    nodes per circle on the first) and doubles until its Laurent tail is at
    most ``settings.tol``, each doubling computing only its new nodes.
    Returns the engine's ``linalg.FredholmResult``, whose ``nodes`` are the
    Nystrom nodes per block of the returned level and ``first_level`` 0.
    Raises ``ConvergenceError`` when no level agrees with the one before
    it, or when the value lies outside ``[0, 1]`` by more than
    ``settings.tol``.
    """
    inst = instance
    settings = settings or LimitSettings()
    kern = _LimitKernels(inst, settings)

    pending: dict[int, tuple[int, list]] = {}

    def nodes_at(level: int) -> int:
        return _refined_count(settings.block_nodes, _PANEL, level)

    def terms_at(level: int) -> tuple[int, list]:
        if level not in pending:
            levels = range(level, level + 1 + (level == 0 < settings.max_levels))
            grids = [block_grid(inst.p, settings.extent, nodes_at(lv)) for lv in levels]
            for lv, grid, terms in zip(levels, grids, _limit_terms(kern, grids, deadline)):
                pending[lv] = len(grid), terms
        return pending.pop(level)

    return _refine(nodes_at, terms_at, inst.p, settings.theta_radius, settings.tol,
                   settings.max_levels, deadline)


# ---------------------------------------------------------------------------
# Tracy-Widom marginal (independent oracle)
# ---------------------------------------------------------------------------

def tracy_widom(s: float, *, nodes: int = 96) -> float:
    """GUE Tracy-Widom distribution function ``F_GUE(s)`` for s in [-10, 6].

    ``det(I - K_Ai)`` on ``(s, infinity)`` by Nystrom quadrature on ``(s, s + 40)``.
    """
    s = float(s)
    if not -10.0 <= s <= 6.0:
        raise SchemaError(f"tracy_widom argument must lie in [-10, 6], got {s}")
    if nodes < 1:
        raise SchemaError(f"nodes must be at least 1, got {nodes}")
    x, w = composite_gl(s, s + 40.0, nodes, panel_size=12)
    kern = airy_kernel_matrix(x, x)
    sw = np.sqrt(w)
    mat = np.eye(len(x)) - sw[:, None] * kern * sw[None, :]
    return float(lu_det(mat).real)
