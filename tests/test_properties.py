"""Property tests of the finite-size law on generated small instances."""

from __future__ import annotations

import math
from itertools import accumulate

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from growthdist.exact import multipoint_prob_exact
from growthdist.oracle import dp_exact_prob, truncated_sum_prob
from growthdist.params import ModelParams

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
