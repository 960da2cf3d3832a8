"""Limit-law kernels, Fredholm determinants, and the multi-time CDF."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import growthdist.asymptotic
import growthdist.integrands
from growthdist.asymptotic import (
    LimitSettings,
    _limit_terms,
    _LimitKernels,
    airy_form_kernel,
    check_d_assignment,
    d_for_eps,
    eval_basic_kernel,
    fredholm_det_F,
    multitime_cdf,
    tracy_widom,
)
from growthdist.errors import ConvergenceError, SchemaError
from growthdist.exact import det_theta
from growthdist.linalg import block_grid
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

def test_d_for_eps_reference_ladder():
    ladder = d_for_eps((2, 1), 0, 3)
    assert ladder[1] == pytest.approx(1.5)
    assert ladder[2] == pytest.approx(0.5)
    assert ladder[3] == pytest.approx(2.5)


def test_d_for_eps_orderings_follow_eps():
    for eps in [(1, 1, 2), (2, 2, 1), (1, 2, 1)]:
        ladder = d_for_eps(eps, 0, 4, lo=0.3, hi=2.2)
        for k in range(1, 4):
            assert (ladder[k] < ladder[k + 1]) == (eps[k - 1] == 1)
        vals = list(ladder.values())
        assert min(vals) == pytest.approx(0.3)
        assert max(vals) == pytest.approx(2.2)


def test_check_d_assignment_rejects_violations():
    with pytest.raises(ValueError):
        check_d_assignment({1: 1.0, 2: 2.0}, (2,), 0, 2)   # up step against eps=2
    with pytest.raises(ValueError):
        check_d_assignment({1: 1.0, 2: 1.0}, (1,), 0, 2)   # duplicate values
    with pytest.raises(ValueError):
        check_d_assignment({1: -1.0, 2: 2.0}, (1,), 0, 2)  # nonpositive
    check_d_assignment({1: 1.0, 2: 2.0}, (1,), 0, 2)       # valid: no raise


def test_limit_settings_validation():
    with pytest.raises(SchemaError):
        LimitSettings(d1=2.0, d2=1.0)
    with pytest.raises(SchemaError):
        LimitSettings(theta_radius=0.9)
    with pytest.raises(SchemaError):
        LimitSettings(ladder_lo=2.0, ladder_hi=1.0)
    with pytest.raises(SchemaError):
        LimitSettings(mu=-0.5)


# ---------------------------------------------------------------------------
# kernel families: contour form vs Airy-operator form
# ---------------------------------------------------------------------------

def test_basic_kernel_scalar_mode():
    inst = LimitParams(t=(1.0,), x=(0.0,), xi=(0.1,))
    val = eval_basic_kernel(1, {"sbot": 0}, 0.5, 0.7, inst)
    assert isinstance(val, complex)
    mat = eval_basic_kernel(1, {"sbot": 0}, np.array([0.5]), np.array([0.7]), inst)
    assert val == pytest.approx(complex(mat[0, 0]))


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
    a = eval_basic_kernel(family, kw, u, v, inst)
    b = airy_form_kernel(family, kw, u, v, inst)
    assert np.max(np.abs(a - b)) < 1e-6


LADDER_DOWN = {"k1": 0, "k2": 2, "epsw": (2,), "rtop": 1, "sbot": 1}


@pytest.mark.parametrize(
    "inst",
    [
        ANCHOR,
        LimitParams(t=(1.0, 1.5), x=(-0.1, 0.2), xi=(0.3, 0.5)),
        pytest.param(
            LimitParams(t=(1.0, 1.5), x=(0.1, -0.2), xi=(0.3, 0.5)),
            marks=pytest.mark.xfail(
                reason="tilted-limit defect: the contour form of this family-6 base "
                "disagrees with its Airy form on the tilted p=2 config",
            ),
        ),
    ],
    ids=["anchor", "mirror", "tilted"],
)
def test_ladder_down_step_matches_airy_form(inst):
    # the one base of the tilted p=2 config whose two forms disagree;
    # the anchor and the mirror config agree to about 1e-13
    u = np.array([-0.8, -0.3])
    v = np.array([-0.6, -0.1])
    a = eval_basic_kernel(6, LADDER_DOWN, u, v, inst)
    b = airy_form_kernel(6, LADDER_DOWN, u, v, inst)
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
    for evaluate in (eval_basic_kernel, airy_form_kernel):
        with pytest.raises(ValueError):
            evaluate(family, kw, -0.5, -0.3, INST2)


def test_kernel_invariant_under_contour_shifts():
    u = np.array([-0.7, 0.3])
    v = np.array([-0.4, 0.6])
    kw = {"k1": 0, "k2": 2, "epsw": (1,), "rtop": 1, "sbot": 1}
    base = eval_basic_kernel(6, kw, u, v, INST2)
    moved = eval_basic_kernel(
        6,
        kw,
        u,
        v,
        INST2,
        settings=LimitSettings(
            d1=1.1, d2=1.9, d3=0.6, d_single=1.3, ladder_lo=0.7, ladder_hi=2.1
        ),
    )
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


@pytest.mark.parametrize(
    "inst, theta, ref",
    [
        (INST2, (2.0 * cmath.exp(0.6j),), 0.9888897976994094 + 0.004964927671872714j),
        (
            INST3,
            (2.0 * cmath.exp(0.7j), 2.0 * cmath.exp(-0.4j)),
            0.9971809107002068 + 0.000830559439842102j,
        ),
    ],
    ids=["two-time", "three-time"],
)
def test_det_pinned_values(inst, theta, ref):
    # recorded from the pure-Python LU evaluation that preceded the LAPACK
    # engine, on the default determinant grid
    got = fredholm_det_F(theta, inst)
    assert abs(got - ref) / abs(ref) < 1e-10


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
    assert res.converged
    assert res.value == pytest.approx(tracy_widom(xi + x * x, nodes=192), abs=1e-9)
    assert res.grid_nodes == 48 * 2 ** res.levels


def test_multitime_two_time_anchor():
    inst = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))
    res = multitime_cdf(inst)
    assert res.converged
    assert abs(res.imag_part) < 1e-8
    assert -1e-4 <= res.value <= 1 + 1e-4
    # frozen two-time value from converged runs of this evaluator
    assert res.value == pytest.approx(0.9720743806856159, abs=5e-6)


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
        _limit_terms(kern, block_grid(ANCHOR.p, 12.0, 48 * 2 ** level))
        assert pairs
        assert len(set(pairs)) == len(pairs)


def test_lines_built_once_per_call(monkeypatch):
    # the lines do not depend on the Nystrom grid, so a further level
    # reuses them; tol=1e-300 forces every level to run
    calls = [0]
    vline = growthdist.asymptotic.vline

    def counting(*args, **kwargs):
        calls[0] += 1
        return vline(*args, **kwargs)

    monkeypatch.setattr(growthdist.asymptotic, "vline", counting)
    counts = []
    for max_levels in (1, 2):
        calls[0] = 0
        settings = LimitSettings(block_nodes=12, tol=1e-300, max_levels=max_levels)
        with pytest.raises(ConvergenceError, match=f"at level {max_levels}"):
            multitime_cdf(ANCHOR, settings)
        counts.append(calls[0])
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_multitime_invariant_under_time_rescaling():
    a = multitime_cdf(LimitParams(t=(1.0, 2.0), x=(0.1, -0.2), xi=(0.3, 0.5)))
    b = multitime_cdf(LimitParams(t=(2.0, 4.0), x=(0.1, -0.2), xi=(0.3, 0.5)))
    assert a.converged and b.converged
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
