"""Limit-law kernels, Fredholm determinants, and the multi-time CDF."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest
import hypothesis
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

import growthdist.asymptotic
import growthdist.exact
import growthdist.integrands
import growthdist.linalg
import growthdist.params
from growthdist.asymptotic import (
    LimitSettings,
    _airy_form_kernel,
    _block_terms,
    _eval_basic_kernel,
    _Layout,
    _limit_terms,
    _LimitKernels,
    fredholm_det_F,
    multitime_cdf,
    tracy_widom,
)
from growthdist.errors import ConvergenceError, SchemaError
from growthdist.exact import det_theta
from growthdist.linalg import _PANEL, _dets, _pack, _refined_count, _theta_integral, block_grid
from growthdist.params import (
    KPZParams,
    LimitParams,
    compute_constants,
    discretize,
)

INST2 = LimitParams(t=(1.0, 2.0), x=(0.1, -0.2), xi=(0.3, 0.5))
INST3 = LimitParams(t=(1.0, 1.5, 2.0), x=(0.1, -0.2, 0.15), xi=(0.3, 0.5, 0.7))
ANCHOR = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))


# ---------------------------------------------------------------------------
# Tracy-Widom marginal
# ---------------------------------------------------------------------------

def test_tracy_widom_reference_values():
    # anchors from doubled-resolution quadrature of det(I - K_Ai)
    anchors = {
        -4.0: 0.003544553527565,
        -2.0: 0.413224142481711,
        0.0: 0.9693728283552477,
        1.0: 0.997505438149409,
        2.0: 0.999887553698308,
    }
    for s, want in anchors.items():
        assert tracy_widom(s) == pytest.approx(want, abs=1e-9)


def test_tracy_widom_grid_doubling():
    for s in (-4.0, -1.0, 0.0, 2.0):
        assert abs(tracy_widom(s, nodes=96) - tracy_widom(s, nodes=192)) < 1e-7


def test_tracy_widom_monotone_and_tails():
    grid = [-8.0, -5.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0]
    vals = [tracy_widom(s) for s in grid]
    assert vals == sorted(vals)
    assert vals[0] < 1e-6
    assert vals[-1] > 1 - 1e-6


def test_tracy_widom_domain():
    with pytest.raises(SchemaError):
        tracy_widom(-11.0)
    with pytest.raises(SchemaError):
        tracy_widom(7.0)
    with pytest.raises(SchemaError):
        tracy_widom(0.0, nodes=0)


# ---------------------------------------------------------------------------
# growing-line ladders
# ---------------------------------------------------------------------------

def _kernels(p: int) -> _LimitKernels:
    inst = LimitParams(t=tuple(range(1, p + 1)), x=(0.0,) * p, xi=(0.1,) * p)
    return _LimitKernels(inst, LimitSettings())


def test_d_for_eps_reference_ladder():
    kern = _kernels(3)
    lo, hi = kern.layout.ladder_lo, kern.layout.ladder_hi
    ladder = kern._ladder(0, 3, (2, 1))  # walk 0, -1, +1
    assert ladder[1] == pytest.approx(0.5 * (lo + hi))
    assert ladder[2] == pytest.approx(lo)
    assert ladder[3] == pytest.approx(hi)


def test_d_for_eps_orderings_follow_eps():
    for p in range(2, 7):
        kern = _kernels(p)
        lo, hi = kern.layout.ladder_lo, kern.layout.ladder_hi
        for k1 in range(p):
            for k2 in range(k1 + 1, p + 1):
                for epsw in itertools.product((1, 2), repeat=k2 - k1 - 1):
                    ladder = kern._ladder(k1, k2, epsw)
                    assert list(ladder) == list(range(k1 + 1, k2 + 1))
                    for k in range(k1 + 1, k2):
                        assert (ladder[k] < ladder[k + 1]) == (epsw[k - k1 - 1] == 1)
                    vals = list(ladder.values())
                    assert len(set(vals)) == len(vals)
                    if len(vals) == 1:
                        assert vals == [0.5 * (lo + hi)]
                    else:
                        assert min(vals) == pytest.approx(lo)
                        assert max(vals) == pytest.approx(hi)


def test_check_d_assignment_rejects_violations():
    kern = _kernels(3)
    with pytest.raises(ValueError):
        kern._ladder(0, 3, (1,))      # one sign short of the window
    with pytest.raises(ValueError):
        kern._ladder(0, 2, (1, 2))    # one sign too many
    with pytest.raises(ValueError):
        kern._ladder(2, 2, ())        # empty window
    with pytest.raises(ValueError):
        kern._ladder(1, 4, (1, 1))    # window past p
    assert min(kern._ladder(0, 3, (2, 2)).values()) > 0.0


def test_limit_settings_validation():
    with pytest.raises(SchemaError):
        LimitSettings(theta_radius=0.9)
    with pytest.raises(SchemaError):
        LimitSettings(mu=-0.5)


# ---------------------------------------------------------------------------
# kernel families: contour form vs Airy-operator form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,kw,inst",
    [
        (1, {"sbot": 0}, INST2),
        (2, {"k": 1, "rtop": 2, "sbot": 0}, INST2),
        (3, {"k": 1, "sbot": 0}, INST2),
        (4, {"k1": 2, "rtop": 3, "k2": 1, "sbot": 0}, INST3),
        (5, {"k1": 0, "k2": 3, "epsw": (1, 2), "rtop": 3}, INST3),
        (6, {"k1": 1, "k2": 3, "epsw": (2,), "rtop": 2, "sbot": 1}, INST3),
        (7, {"k1": 0, "k2": 2, "k3": 1, "epsw": (1,), "rtop": 2, "sbot": 0}, INST2),
    ],
    ids=[f"family-{f}" for f in range(1, 8)],
)
def test_remaining_families_match_airy_forms(family, kw, inst):
    u = np.array([-0.8, -0.2, 0.5])
    v = np.array([-0.6, 0.1, 0.9])
    a = _eval_basic_kernel(family, kw, u, v, inst)
    b = _airy_form_kernel(family, kw, u, v, inst)
    assert np.max(np.abs(a - b)) < 1e-6


LADDER_DOWN = {"k1": 0, "k2": 2, "epsw": (2,), "rtop": 1, "sbot": 1}


@pytest.mark.parametrize(
    "inst",
    [
        ANCHOR,
        LimitParams(t=(1.0, 1.5), x=(-0.1, 0.2), xi=(0.3, 0.5)),
        LimitParams(t=(1.0, 1.5), x=(0.1, -0.2), xi=(0.3, 0.5)),
    ],
    ids=["anchor", "mirror", "tilted"],
)
def test_ladder_down_step_matches_airy_form(inst):
    # the base of the tilted p=2 config whose two forms disagreed by 8e-3
    # while the layout was scaled up to a top ladder line at 4.3
    u = np.array([-0.8, -0.3])
    v = np.array([-0.6, -0.1])
    a = _eval_basic_kernel(6, LADDER_DOWN, u, v, inst)
    b = _airy_form_kernel(6, LADDER_DOWN, u, v, inst)
    assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize(
    "family,kw",
    [
        (8, {"sbot": 0}),
        (2, {"k": 2, "rtop": 1, "sbot": 0}),
        (1, {"sbot": -1}),
        (5, {"k1": 0, "k2": 2, "epsw": (), "rtop": 1}),
    ],
    ids=["unknown-family", "out-of-order", "negative-index", "epsw-length"],
)
def test_family_index_errors(family, kw):
    for evaluate in (_eval_basic_kernel, _airy_form_kernel):
        with pytest.raises(ValueError):
            evaluate(family, kw, -0.5, -0.3, INST2)


def test_kernel_invariant_under_contour_shifts(monkeypatch):
    u = np.array([-0.7, 0.3])
    v = np.array([-0.4, 0.6])
    kw = {"k1": 0, "k2": 2, "epsw": (1,), "rtop": 1, "sbot": 1}
    base = _eval_basic_kernel(6, kw, u, v, INST2)
    monkeypatch.setattr(
        growthdist.asymptotic, "_LAYOUT",
        _Layout(d1=1.1, d2=1.9, d3=0.6, d_single=1.3, ladder_lo=0.7, ladder_hi=2.1),
    )
    moved = _eval_basic_kernel(6, kw, u, v, INST2)
    assert np.max(np.abs(base - moved)) < 1e-7


# ---------------------------------------------------------------------------
# Fredholm determinant of the assembled kernel
# ---------------------------------------------------------------------------

def test_det_reduces_to_tracy_widom_at_one_time():
    inst = LimitParams(t=(1.0,), x=(0.0,), xi=(0.1,))
    got = fredholm_det_F((), inst)
    assert got.real == pytest.approx(tracy_widom(0.1), abs=1e-6)
    assert abs(got.imag) < 1e-8


def test_det_conjugate_symmetry():
    th = 2.0 * cmath.exp(0.6j)
    d = fredholm_det_F((th,), INST2)
    dbar = fredholm_det_F((np.conj(th),), INST2)
    assert abs(dbar - np.conj(d)) / abs(d) < 1e-10


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, complex(math.nan, 1.0)])
def test_det_rejects_zero_or_non_finite_theta(bad):
    with pytest.raises(SchemaError, match="finite and non-zero"):
        fredholm_det_F((2.0, bad), INST3)


def test_level_packs_terms_once_per_monomial(monkeypatch):
    # a level's 87 INST3 terms share 15 theta monomials and pack into 51
    # (block, monomial) matrices; every theta rule then reuses the packing
    # and evaluates no coefficient in params
    settings = LimitSettings()
    grid = block_grid(INST3.p, settings.extent, 12)
    (terms,) = _limit_terms(_LimitKernels(INST3, settings), [grid])
    exponents, blocks = _pack(terms)
    assert len(terms) == 87
    assert len(exponents) == 15
    assert sum(len(which) for _, _, which, _ in blocks) == 51

    def forbidden(*args, **kwargs):
        raise AssertionError("params called during a theta rule")

    for mod in (growthdist.params, growthdist.linalg, growthdist.exact, growthdist.asymptotic):
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) == "growthdist.params" and callable(obj):
                monkeypatch.setattr(mod, name, forbidden)
    for n_theta in (8, 16, 32):
        value, tail, _ = _theta_integral(
            len(grid), (exponents, blocks), INST3.p, 2.0, n_theta, None)
        assert math.isfinite(abs(value)) and tail >= 0.0


@pytest.mark.parametrize(
    "inst, theta, ref",
    [
        (INST2, (2.0 * cmath.exp(0.6j),), 0.9888897976994094 + 0.004964927671872714j),
        (
            INST3,
            (2.0 * cmath.exp(0.7j), 2.0 * cmath.exp(-0.4j)),
            0.9883699344582076 + 0.004379090547101011j,
        ),
    ],
    ids=["two-time", "three-time"],
)
def test_det_pinned_values(inst, theta, ref):
    # on the default determinant grid; the two-time value was recorded from
    # the pure-Python LU evaluation that preceded the LAPACK engine, the
    # three-time value on the wedge lines, where 2x and 4x the line density
    # and 1 or 2 BLAS threads agree with it to 3e-14
    got = fredholm_det_F(theta, inst)
    assert abs(got - ref) / abs(ref) < 1e-10


@pytest.mark.parametrize(
    "inst",
    [
        ANCHOR,
        INST2,
        LimitParams(t=(1.0, 1.5, 2.0), x=(0.0, 0.0, 0.0), xi=(0.3, 4.0, 0.7)),
        INST3,
        LimitParams(t=(1.0, 1.5), x=(0.1, -0.2), xi=(0.3, 0.5)),
    ],
    ids=["anchor", "inst2", "middle-marginal", "inst3", "tilted"],
)
def test_limit_bases_are_real_to_rounding(monkeypatch, inst):
    # every kernel base is real in exact arithmetic, and the walk over one
    # node of each conjugate pair returns its real part; the complex product
    # over each line's full rule must match it, imaginary part included,
    # or the base's rounding noise moves with any reordering of its sums
    walked = {}
    walk = growthdist.asymptotic._walk_chains

    def recording(jobs, **kwargs):
        out = walk(jobs, **kwargs)
        walked.update(out)
        return out

    monkeypatch.setattr(growthdist.asymptotic, "_walk_chains", recording)
    settings = LimitSettings()
    kern = _LimitKernels(inst, settings)
    grid = block_grid(inst.p, settings.extent, settings.block_nodes)
    _limit_terms(kern, [grid])
    coords = {(0, r == inst.p): grid.nodes[grid.slices[r - 1]] for r in range(1, inst.p + 1)}

    def line(key):
        nodes, wf = kern._lines[key]
        return np.concatenate([nodes, nodes.conj()]), np.concatenate([wf, wf.conj()])

    assert walked
    for job, value in walked.items():
        (first, ukey), *rest = job.links
        nodes, wf = line(first)
        full = np.exp(-np.outer(coords[ukey], nodes)) * wf[None, :]
        for key, weighted in rest:
            nxt, wf = line(key)
            full = (full @ (1.0 / (nodes[:, None] - nxt[None, :]))) * (wf if weighted else 1.0)
            nodes = nxt
        full = full @ (np.exp(np.outer(nodes, coords[job.cols[1]])) * wf[:, None]) / job.sign
        assert np.isrealobj(value)
        assert np.abs(value - full).max() <= 1e-6 * np.abs(full).max()


def test_equal_increments_weight_each_shared_base_once():
    # t = (1, 2, 3) has equal increments, so requests of different blocks
    # resolve to one chain and share one kernel matrix; every block must
    # still be the sum of its terms' families under W^(1/2) . W^(1/2)
    inst = LimitParams(t=(1.0, 2.0, 3.0), x=(0.0, 0.0, 0.0), xi=(0.0, 0.0, 0.0))
    settings = LimitSettings()
    grid = block_grid(inst.p, settings.extent, 12)
    (terms,) = _limit_terms(_LimitKernels(inst, settings), [grid])
    theta = (2.0 * cmath.exp(0.7j), 2.0 * cmath.exp(-0.4j))

    def at(poly):
        return sum(c * math.prod(th ** k for th, k in zip(theta, alpha))
                   for alpha, c in poly.items())

    got = np.zeros((len(grid), len(grid)), dtype=complex)
    for rows, cols, base, poly in terms:
        got[rows, cols] += at(poly) * base
    want = np.zeros_like(got)
    sw = np.sqrt(grid.weights)
    requests = set()
    for r, s in itertools.product(range(1, inst.p + 1), repeat=2):
        rows, cols = grid.slices[r - 1], grid.slices[s - 1]
        for family, kw, poly in _block_terms(inst.p, r, s):
            requests.add((family, tuple(sorted(kw.items())), r == inst.p, s == inst.p))
            kern = _eval_basic_kernel(family, kw, grid.nodes[rows], grid.nodes[cols], inst)
            want[rows, cols] += at(poly) * (sw[rows, None] * kern * sw[None, cols])
    assert len({id(base) for _, _, base, _ in terms}) < len(requests)  # some bases are shared
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_det_invariant_under_conjugation_rate():
    th = 2.0 * cmath.exp(-0.8j)
    base = fredholm_det_F((th,), INST2, settings=LimitSettings())
    shifted = fredholm_det_F((th,), INST2, settings=LimitSettings(mu=2.0))
    assert abs(base - shifted) / abs(base) < 1e-8


# ---------------------------------------------------------------------------
# the multi-time distribution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "t, x, xi",
    [(1.0, 0.3, 0.2), (1.0, 0.4, 0.1), (2.5, 0.4, 0.1)],
    ids=["t1-x0.3-xi0.2", "t1-x0.4-xi0.1", "t2.5-x0.4-xi0.1"],
)
def test_multitime_single_time_route(t, x, xi):
    # the one-time law is the single determinant det(I + F) = F_GUE(xi + x^2),
    # whatever the time
    res = multitime_cdf(LimitParams(t=(t,), x=(x,), xi=(xi,)))
    assert res.value == pytest.approx(tracy_widom(xi + x * x, nodes=192), abs=1e-9)
    assert res.nodes == _refined_count(48, _PANEL, res.levels)


def test_multitime_two_time_anchor():
    inst = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))
    res = multitime_cdf(inst)
    assert -1e-4 <= res.value <= 1 + 1e-4
    # frozen two-time value from converged runs of this evaluator
    assert res.value == pytest.approx(0.9720743806856159, abs=5e-6)


@pytest.mark.parametrize("inst", [ANCHOR, INST3, LimitParams(t=(1.0,), x=(0.3,), xi=(0.2,))],
                         ids=["anchor", "inst3", "p1"])
def test_imag_part_is_zero_by_construction(inst):
    # real bases and a conjugate-symmetric theta torus give real Laurent
    # coefficients; the p = 1 determinant is that of a real matrix
    res = multitime_cdf(inst)
    assert isinstance(res.value, float)


def test_each_line_coupling_formed_once_per_level(monkeypatch):
    pairs = []
    cauchy = growthdist.integrands._cauchy

    def counting(a, b):
        pairs.append((a.tobytes(), b.tobytes()))
        return cauchy(a, b)

    monkeypatch.setattr(growthdist.integrands, "_cauchy", counting)
    kern = _LimitKernels(ANCHOR, LimitSettings())
    for level in (0, 1):
        pairs.clear()
        _limit_terms(kern, [block_grid(ANCHOR.p, 12.0, _refined_count(48, _PANEL, level))])
        assert pairs
        assert len(set(pairs)) == len(pairs)


def test_anchor_run_forms_each_line_coupling_once(monkeypatch):
    # the lines do not depend on the Nystrom grid, and levels 0 and 1 are
    # walked together, so a run that ends at level 1 forms each coupling
    # of two lines once
    pairs = []
    cauchy = growthdist.integrands._cauchy

    def counting(a, b):
        pairs.append((a.tobytes(), b.tobytes()))
        return cauchy(a, b)

    monkeypatch.setattr(growthdist.integrands, "_cauchy", counting)
    res = multitime_cdf(ANCHOR)
    assert res.levels == 1
    assert len(pairs) == 8
    assert len(set(pairs)) == len(pairs)


def test_lines_built_once_per_call(monkeypatch):
    # the lines do not depend on the Nystrom grid, so a further level
    # reuses them; tol=1e-300 forces every level to run
    calls = [0]
    wedge = growthdist.asymptotic.wedge

    def counting(*args, **kwargs):
        calls[0] += 1
        return wedge(*args, **kwargs)

    monkeypatch.setattr(growthdist.asymptotic, "wedge", counting)
    counts = []
    for max_levels in (1, 2):
        calls[0] = 0
        settings = LimitSettings(block_nodes=12, tol=1e-300, max_levels=max_levels)
        with pytest.raises(ConvergenceError, match=f"at level {max_levels}"):
            multitime_cdf(ANCHOR, settings)
        counts.append(calls[0])
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_anchor_rays_keep_at_most_200_nodes():
    # the wedges leave the real axis toward the cubic's steepest descent, so
    # the anchor's lines are short and barely oscillate; as vertical lines
    # its two growing ladder lines kept 426 nodes each
    kern = _LimitKernels(ANCHOR, LimitSettings())
    _limit_terms(kern, [block_grid(ANCHOR.p, 12.0, 48)])
    counts = [len(nodes) for nodes, _ in kern._lines.values()]
    assert len(counts) == 9
    assert max(counts) <= 200


@pytest.mark.parametrize("block_nodes", [8, 12])
def test_every_level_has_more_panels(monkeypatch, block_nodes):
    # one 12-node panel grown by sqrt(2) rounds back to one panel; such a
    # level would repeat the last one and agree with it exactly
    panels = []
    grid = growthdist.asymptotic.block_grid
    certified = growthdist.linalg._certified_integral

    def recording(p, extent, n):
        g = grid(p, extent, n)
        panels.append(len(g) // (p * _PANEL))
        return g

    def apart(size, *args):
        # converged levels can agree to the last bit; offsetting each value
        # by its matrix side keeps every level apart, so all of them run
        value, n_theta, tail = certified(size, *args)
        return value + size, n_theta, tail

    monkeypatch.setattr(growthdist.asymptotic, "block_grid", recording)
    monkeypatch.setattr(growthdist.linalg, "_certified_integral", apart)
    settings = LimitSettings(block_nodes=block_nodes, tol=1e-300, max_levels=4)
    with pytest.raises(ConvergenceError, match="at level 4"):
        multitime_cdf(ANCHOR, settings)
    assert panels == [1, 2, 3, 4, 5]
    assert [_refined_count(48, _PANEL, level) // _PANEL for level in range(7)] == [
        4, 6, 8, 11, 16, 23, 32
    ]
    # the default cap reaches the finest grid of two doublings
    assert _refined_count(48, _PANEL, LimitSettings().max_levels) == 48 * 2 ** 2


def _assert_sandwiched(inst: LimitParams) -> float:
    # Harris's inequality below (each event is decreasing in the weights)
    # and Frechet's above, with the one-time marginals F_GUE(xi + x^2)
    tol = LimitSettings().tol
    marginals = [tracy_widom(xi + x * x) for x, xi in zip(inst.x, inst.xi)]
    value = multitime_cdf(inst).value
    assert math.prod(marginals) - tol <= value <= min(marginals) + tol
    return value


@st.composite
def spread_limit_points(draw):
    """Two-time limit points of the census ranges with ``t2 - t1 >= 0.8``."""
    t2 = draw(st.floats(1.8, 3.0))
    x = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
    xi = draw(st.tuples(st.floats(-1.0, 1.5), st.floats(-1.0, 1.5)))
    return LimitParams(t=(1.0, t2), x=x, xi=xi)


@hypothesis.settings(max_examples=6, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])
@given(spread_limit_points())
def test_two_time_law_is_sandwiched_by_its_marginals(inst):
    # ROADMAP item 1 gates (b), (a) and (c): the sandwich, the law is
    # invariant under the mirror x -> -x, and a threshold of 5 drops its
    # time (P(H > 5) is below 1e-9), leaving the other one-time marginal
    tol = LimitSettings().tol
    value = _assert_sandwiched(inst)
    mirror = LimitParams(t=inst.t, x=tuple(-x for x in inst.x), xi=inst.xi)
    assert abs(multitime_cdf(mirror).value - value) <= tol
    for drop, keep in ((1, 0), (0, 1)):
        xi = list(inst.xi)
        xi[drop] = 5.0
        one = multitime_cdf(LimitParams(t=inst.t, x=inst.x, xi=tuple(xi))).value
        assert abs(one - tracy_widom(inst.xi[keep] + inst.x[keep] ** 2)) <= tol


@pytest.mark.parametrize(
    "t2, x, xi",
    [
        pytest.param(1.4658, (0.104, -0.1787), (1.2536, -0.4571), id="census-7"),
        pytest.param(1.2443, (0.2035, -0.0202), (-0.682, 0.8481), id="census-12"),
        pytest.param(1.2637, (-0.0844, -0.2022), (1.497, -0.64), id="census-21"),
    ],
)
def test_close_times_break_the_sandwich(t2, x, xi):
    # census instances (default_rng(11), t2 - t1 < 0.8) that broke the
    # sandwich (census-7, census-21) or overflowed (census-12) while the
    # layout was scaled up instead of shifted
    _assert_sandwiched(LimitParams(t=(1.0, t2), x=x, xi=xi))


@pytest.mark.parametrize(
    "t2, x, xi, ref",
    [
        pytest.param(1.25, (0.3, -0.3), (0.3, 0.5), 0.98174846, id="tilted-1.25"),
        pytest.param(1.05, (0.0, 0.0), (0.3, 0.7), 0.98377445, id="untilted-1.05"),
    ],
)
def test_close_times_agree_with_denser_lines(t2, x, xi, ref):
    # ROADMAP item 1 gate (e) and a census corner: the references are the
    # values on which 2x and 4x the vertical lines' node density agreed
    # (1.6e-10 and 1.3e-9 apart); at 1x those lines read 0.98175351 and
    # 0.98418459, 5e-6 and 4.1e-4 off
    res = multitime_cdf(LimitParams(t=(1.0, t2), x=x, xi=xi))
    assert abs(res.value - ref) <= LimitSettings().tol


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="ROADMAP item 1: a non-finite determinant at t2 - t1 <= 0.03")
@pytest.mark.parametrize("t2", [1.02, 1.03])
def test_closest_times_are_finite_and_sandwiched(t2):
    # ROADMAP item 1 gate (e) at its smallest gaps
    _assert_sandwiched(LimitParams(t=(1.0, t2), x=(0.0, 0.0), xi=(0.3, 0.7)))


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 1: the Nystrom extent truncates the "
                          "x = (-0.3, 0.3) corner, 9.0e-5 off its mirror")
def test_close_time_mirror_survives_the_nystrom_extent():
    # ROADMAP item 1 gate (a) at a census corner the derandomized draws of
    # test_close_time_law_is_sandwiched_and_mirror_symmetric miss: this
    # config reads 0.98165887 at the default extent 12 and 0.98175522 at 16,
    # while its mirror reads 0.98174846 at both; refining levels never
    # widens the extent, so the run converges to the truncated value
    inst = LimitParams(t=(1.0, 1.25), x=(-0.3, 0.3), xi=(0.3, 0.5))
    mirror = LimitParams(t=inst.t, x=(0.3, -0.3), xi=inst.xi)
    assert abs(multitime_cdf(inst).value - multitime_cdf(mirror).value) <= LimitSettings().tol


@st.composite
def close_limit_points(draw):
    """Two-time limit points of the census ranges with ``t2 - t1 < 0.8``."""
    t2 = draw(st.floats(1.2, 1.8, exclude_max=True))
    x = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
    xi = draw(st.tuples(st.floats(-1.0, 1.5), st.floats(-1.0, 1.5)))
    return LimitParams(t=(1.0, t2), x=x, xi=xi)


@hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])
@given(close_limit_points())
def test_close_time_law_is_sandwiched_and_mirror_symmetric(inst):
    # ROADMAP item 1 gates (b) and (a) at close times: the sandwich, and the
    # law is invariant under the mirror x -> -x
    value = _assert_sandwiched(inst)
    mirror = LimitParams(t=inst.t, x=tuple(-x for x in inst.x), xi=inst.xi)
    assert abs(multitime_cdf(mirror).value - value) <= LimitSettings().tol


def test_multitime_invariant_under_time_rescaling():
    a = multitime_cdf(LimitParams(t=(1.0, 2.0), x=(0.1, -0.2), xi=(0.3, 0.5)))
    b = multitime_cdf(LimitParams(t=(2.0, 4.0), x=(0.1, -0.2), xi=(0.3, 0.5)))
    assert abs(a.value - b.value) < 1e-5


# ---------------------------------------------------------------------------
# finite-size determinant approaches the limit determinant (three times)
# ---------------------------------------------------------------------------

def test_three_time_determinant_convergence_pointwise():
    # the threshold rounding inside discretize jitters the effective xi by
    # O(T^(-1/3)), the same order as the convergence rate, so the limit is
    # evaluated at the effective thresholds implied by the rounded corners
    q = 0.25
    c = compute_constants(q)
    t, xi = (1.0, 1.5, 2.0), (0.3, 0.5, 0.7)
    theta = (2.0 * cmath.exp(0.7j), 2.0 * cmath.exp(-0.4j))
    diffs = []
    for big_t in (20.0, 40.0, 80.0):
        mp = discretize(KPZParams(q=q, T=big_t, t=t, x=(0.0, 0.0, 0.0), xi=xi))
        fin = det_theta(mp, theta)
        xihat = tuple(
            (mp.a[k] - c.c2 * t[k] * big_t) / (c.c3 * (t[k] * big_t) ** (1 / 3))
            for k in range(3)
        )
        lim = fredholm_det_F(theta, LimitParams(t=t, x=(0.0, 0.0, 0.0), xi=xihat))
        diffs.append(abs(fin - lim))
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    assert diffs[2] < 6e-3


# ---------------------------------------------------------------------------
# the interior-time term (ROADMAP item 2)
# ---------------------------------------------------------------------------

INTERIOR = LimitParams(t=(1.0, 1.5, 2.0), x=(0.0, 0.0, 0.0), xi=(0.3, 4.0, 0.7))
INTERIOR_DROPPED = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.3, 0.7))


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 2: the p=3 limit table is "
                          "4.19e-3 off the one-theta identity")
@pytest.mark.parametrize("block_nodes", [48, 96])
def test_limit_interior_time_out_of_reach_at_one_theta(block_nodes):
    # The limit route's form of the exact route's item-2 gate: with xi_2 = 4
    # out of reach, the mean of det * theta_2 / (theta_2 - 1) over a 64-node
    # theta_2 ring is the determinant at t = (1, 2).  It is 4.19e-3 off at
    # 48 and 96 nodes per block alike, so the grid does not cause it.
    settings = LimitSettings(block_nodes=block_nodes)
    theta1 = 2.0 * cmath.exp(0.7j)
    ring = 2.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    grid = block_grid(INTERIOR.p, settings.extent, settings.block_nodes)
    (terms,) = _limit_terms(_LimitKernels(INTERIOR, settings), [grid])
    dets = _dets(len(grid), _pack(terms), (np.full(64, theta1), ring), None)
    want = fredholm_det_F((theta1,), INTERIOR_DROPPED, settings=settings)
    assert abs(np.mean(dets * ring / (ring - 1)) - want) <= settings.tol


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 2: the p=3 limit law reads 0.9776996, below "
                          "Harris' bound 0.9790087 and off the p=2 law 0.9808106")
def test_limit_interior_time_out_of_reach_gives_the_two_time_law():
    # Harris: increasing events are positively correlated, so the law is at
    # least the product of its marginals; with xi_2 out of reach it is the
    # two-time law of t = (1, 2)
    tol = LimitSettings().tol
    value = multitime_cdf(INTERIOR).value
    harris = math.prod(tracy_widom(xi) for xi in INTERIOR.xi)
    assert value >= harris - tol
    assert abs(value - multitime_cdf(INTERIOR_DROPPED).value) <= tol
