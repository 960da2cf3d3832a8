"""Property tests of the finite-size law on generated small instances."""

from __future__ import annotations

import math
import time
from itertools import accumulate

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

import growthdist.linalg
from growthdist.exact import _Assembler, _drop_implied_times, _terms, multipoint_prob_exact
from growthdist.linalg import _pack, _theta_integral
from growthdist.oracle import dp_exact_prob, truncated_sum_prob
from growthdist.params import KPZParams, ModelParams, _short_side, discretize

MAX_STATES = 150  # transfer-matrix states C(a_p - 1 + N, N), N = min(m_p, n_p)


@st.composite
def small_corners(draw):
    """Ordered corners, non-decreasing thresholds, a small DP state space,
    and the index of the threshold to raise."""
    p = draw(st.sampled_from([2, 3]))
    q = draw(st.floats(0.2, 0.6))
    steps = st.lists(st.integers(1, 2), min_size=p, max_size=p)
    m = tuple(accumulate(draw(steps)))
    n = tuple(accumulate(draw(steps)))
    width = min(m[-1], n[-1])
    cap = max(c for c in range(1, 20) if math.comb(c - 1 + width, width) <= MAX_STATES)
    a = tuple(sorted(draw(st.lists(st.integers(1, cap), min_size=p, max_size=p))))
    return ModelParams(q=q, m=m, n=n, a=a), draw(st.integers(0, p - 1))


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_corners())
def test_exact_matches_dp_and_is_monotone_in_each_threshold(case):
    params, k = case
    value = multipoint_prob_exact(params).value
    assert abs(value - dp_exact_prob(params)) < 1e-9
    raised = list(params.a)
    raised[k] += 1
    higher = multipoint_prob_exact(
        ModelParams(q=params.q, m=params.m, n=params.n, a=tuple(raised))
    ).value
    assert higher >= value - 1e-9


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_corners())
def test_exact_is_invariant_under_reflection(case):
    # G(m, n) and G(n, m) have the same joint law; the swap runs the same
    # assembly with another N = n_p and another block layout
    params, _ = case
    swapped = ModelParams(q=params.q, m=params.n, n=params.m, a=params.a)
    value = multipoint_prob_exact(params).value
    assert abs(multipoint_prob_exact(swapped).value - value) < 1e-9


@st.composite
def tiny_corners(draw):
    """Corners small enough for the determinantal sum's enumeration."""
    p = draw(st.sampled_from([1, 2]))
    q = draw(st.floats(0.2, 0.6))
    steps = st.lists(st.integers(1, 2), min_size=p, max_size=p)
    m = tuple(accumulate(draw(steps)))
    n = tuple(accumulate(draw(steps)))
    a = tuple(sorted(draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))))
    return ModelParams(q=q, m=m, n=n, a=a)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_corners())
def test_dp_is_symmetric_and_matches_determinantal_sum(params):
    swapped = ModelParams(q=params.q, m=params.n, n=params.m, a=params.a)
    value = dp_exact_prob(params)
    assert abs(dp_exact_prob(swapped) - value) < 1e-14
    assert abs(truncated_sum_prob(params) - value) < 1e-12


@st.composite
def seeded_corners(draw):
    """Corners from the benchmark's seeded-corner ranges, at p = 2 or 3:
    distinct corners in [1, 5] x [1, 4] and thresholds near the mean
    passage time, strictly increasing and at most 8, so that no time is
    implied by a later one."""
    p = draw(st.sampled_from([2, 3]))
    q = draw(st.floats(0.2, 0.6))
    m = sorted(draw(st.lists(st.integers(1, 5), min_size=p, max_size=p, unique=True)))
    n = sorted(draw(st.lists(st.integers(1, 4), min_size=p, max_size=p, unique=True)))
    mean = q / (1.0 - q)
    a = [
        max(1, round(mean * (math.sqrt(mk) + math.sqrt(nk)) ** 2)) + draw(st.integers(0, 2))
        for mk, nk in zip(m, n)
    ]
    # strictly increasing, each threshold leaving room below 8 for the steps after it
    a = list(accumulate(a, lambda lo, ak: max(lo + 1, ak)))
    a = [min(ak, 8 - (p - 1 - k)) for k, ak in enumerate(a)]
    return ModelParams(q=q, m=tuple(m), n=tuple(n), a=tuple(a))


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_corners())
def test_certified_theta_rule_matches_dp_and_its_refinement(params):
    tol = 1e-9
    res = multipoint_prob_exact(params, tol=tol)
    assert abs(res.value - dp_exact_prob(params)) < tol
    assert res.theta_tail <= tol
    # the last contour level again, under twice the certified theta nodes, on
    # the instance the run computed: its times all kept, its short side in n
    run = _short_side(_drop_implied_times(params))
    assert run.p == params.p
    asm = _Assembler(run, 0.0, 1.0)
    packed = _pack(_terms(asm, res.nodes))
    doubled, _, _ = _theta_integral(asm.N, packed, run.p, 2.0, 2 * res.theta_nodes, None)
    assert abs(doubled - res.value) <= tol


def test_theta_tail_doubles_the_rule(monkeypatch):
    # the degree-2 Laurent coefficient of this corner exceeds tol, so the
    # 8-node rule is refused and the run ends at 16 nodes per circle
    phases = []
    check = growthdist.linalg._check_deadline

    def recording(deadline, phase):
        phases.append(phase)
        check(deadline, phase)

    monkeypatch.setattr(growthdist.linalg, "_check_deadline", recording)
    params = ModelParams(q=0.4, m=(2, 4), n=(1, 3), a=(4, 7))
    res = multipoint_prob_exact(params, deadline=time.monotonic() + 60.0)
    assert res.theta_nodes == 16
    assert phases.count("theta refinement") == 1
    asm = _Assembler(params, 0.0, 1.0)
    _, tail, _ = _theta_integral(asm.N, _pack(_terms(asm, res.nodes)), params.p, 2.0, 8, None)
    assert tail > 1e-9
    assert abs(res.value - dp_exact_prob(params)) < 1e-9


@st.composite
def refinement_cases(draw):
    """Corners at p = 2..4 with ``q`` in [0.05, 0.8], or scaled p = 2
    configs near the benchmark's (``T <= 40``)."""
    if draw(st.booleans()):
        return discretize(KPZParams(
            q=draw(st.floats(0.2, 0.4)), T=draw(st.floats(5.0, 40.0)),
            t=(1.0, draw(st.floats(1.5, 2.5))),
            x=tuple(draw(st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=2))),
            xi=tuple(draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2))),
        ))
    p = draw(st.sampled_from([2, 3, 4]))
    q = draw(st.floats(0.05, 0.8))
    steps = st.lists(st.integers(1, 2), min_size=p, max_size=p)
    m = tuple(accumulate(draw(steps)))
    n = tuple(accumulate(draw(steps)))
    a = tuple(sorted(draw(st.lists(st.integers(1, 8), min_size=p, max_size=p))))
    return ModelParams(q=q, m=m, n=n, a=a)


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(refinement_cases())
# levels 0 and 1 already agree here, below the level the geometry starts at
@example(ModelParams(q=0.06876340206379784, m=(1, 2, 3), n=(2, 3, 4), a=(2, 7, 8)))
def test_skipped_levels_leave_the_full_schedule_result(params):
    # starting at the level the circle geometry chooses ends no earlier than
    # the full schedule from level 0, with the same value to tol
    tol = 1e-9
    res = multipoint_prob_exact(params, tol=tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growthdist.linalg, "_first_level", lambda *args: 0)
        full = multipoint_prob_exact(params, tol=tol)
    assert res.levels >= full.levels
    assert abs(res.value - full.value) <= tol
    assert res.first_level < res.levels
