"""Independent references: weights, difference calculus, transfer matrix
and the truncated determinantal sum."""

from __future__ import annotations

import math

import numpy as np
import pytest

import growthdist.oracle
from growthdist.errors import BudgetError
from growthdist.oracle import (
    _dp_peak_states,
    _row_keys,
    dp_exact_prob,
    nabla_pow,
    nabla_w,
    nabla_w_table,
    truncated_sum_prob,
    verify_sbp,
    w_weight,
)
from growthdist.params import ModelParams


# ---------------------------------------------------------------------------
# m-fold geometric weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.3, 0.6])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_w_weight_negative_binomial(q, m):
    for x in range(0, 8):
        want = math.comb(x + m - 1, x) * (1 - q) ** m * q ** x
        assert w_weight(x, m, q) == pytest.approx(want, rel=1e-13)
    assert w_weight(-1, m, q) == 0.0
    total = sum(w_weight(x, m, q) for x in range(0, 200))
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# forward difference calculus
# ---------------------------------------------------------------------------

def test_nabla_of_point_mass():
    g = nabla_pow({0: 1.0}, 1)
    assert [g(x) for x in (-2, -1, 0, 1)] == [0.0, 1.0, -1.0, 0.0]


def test_inverse_nabla_of_point_mass_is_step():
    g = nabla_pow({0: 1.0}, -1)
    assert [g(x) for x in (-1, 0, 1, 5)] == [0.0, 0.0, 1.0, 1.0]


def test_nabla_round_trip_is_identity():
    f = {0: 0.7, 1: -0.2, 3: 1.1}
    lifted = {x: nabla_pow(f, -2)(x) for x in range(-10, 14)}
    back = nabla_pow(lifted, 2)
    for x in range(-5, 9):
        assert back(x) == pytest.approx(f.get(x, 0.0), abs=1e-14)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_nabla_w_matches_generic_operator(k):
    m, q = 3, 0.3
    wd = {x: w_weight(x, m, q) for x in range(-5, 80)}
    ref = nabla_pow(wd, k)
    for x in range(0, 12):
        assert nabla_w(k, m, q, x) == pytest.approx(ref(x), abs=1e-14)
    tab = nabla_w_table(k, m, q, -2, 10)
    assert np.allclose(tab, [nabla_w(k, m, q, x) for x in range(-2, 11)], atol=1e-15)


# ---------------------------------------------------------------------------
# transfer-matrix reference probability
# ---------------------------------------------------------------------------

def test_dp_single_cell_values():
    assert dp_exact_prob(ModelParams(q=0.5, m=(1,), n=(1,), a=(1,))) == pytest.approx(0.5)
    assert dp_exact_prob(ModelParams(q=0.5, m=(1,), n=(1,), a=(3,))) == pytest.approx(
        1 - 0.5 ** 3
    )


def test_dp_thin_strip_is_negative_binomial_cdf():
    q = 0.3
    mp = ModelParams(q=q, m=(5,), n=(1,), a=(7,))
    cdf = sum(w_weight(x, 5, q) for x in range(0, 7))
    assert dp_exact_prob(mp) == pytest.approx(cdf, rel=1e-12)


def test_dp_forced_zero_box():
    # G(2,2) < 1 forces all four weights in the box to vanish
    mp = ModelParams(q=0.5, m=(2,), n=(2,), a=(1,))
    assert dp_exact_prob(mp) == pytest.approx((1 - 0.5) ** 4, rel=1e-12)


def test_dp_monotone_in_thresholds():
    q = 0.4
    vals = [
        dp_exact_prob(ModelParams(q=q, m=(1, 2), n=(1, 3), a=(a1, 4)))
        for a1 in (1, 2, 3)
    ]
    assert vals == sorted(vals)
    vals2 = [
        dp_exact_prob(ModelParams(q=q, m=(1, 2), n=(1, 3), a=(2, a2)))
        for a2 in (3, 4, 5)
    ]
    assert vals2 == sorted(vals2)
    assert all(0.0 <= v <= 1.0 for v in vals + vals2)


def test_dp_transposition_symmetry():
    a = dp_exact_prob(ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4)))
    b = dp_exact_prob(ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, 4)))
    assert a == pytest.approx(b, abs=1e-14)


def test_dp_value_is_pinned():
    # recorded by the earlier dictionary-of-states DP
    mp = ModelParams(q=0.4901, m=(4, 8), n=(3, 5), a=(6, 11))
    assert dp_exact_prob(mp) == pytest.approx(0.011606711549096003, rel=1e-14, abs=0)


def test_row_keys_are_exact_past_int64():
    # 41 columns of radix 3 need 3**41 > 2**63 key values
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, size=(400, 41))
    rows[200:] = rows[rng.integers(0, 200, size=200)]
    rows[::7, 0] = rng.integers(0, 3, size=len(rows[::7]))
    _, want = np.unique(rows, axis=0, return_inverse=True)
    keys = _row_keys(rows, 3)
    same_rows = want[:, None] == want[None, :]
    same_keys = keys[:, None] == keys[None, :]
    assert np.array_equal(same_rows, same_keys)


def test_dp_state_budget():
    mp = ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4))
    with pytest.raises(BudgetError):
        dp_exact_prob(mp, state_budget=1)


def test_dp_state_budget_caps_the_peak():
    # halfway through a row this corner holds C(15, 3)**2 = 207,025 states,
    # far more than the C(18, 6) = 18,564 of a finished row
    mp = ModelParams(q=0.4, m=(3, 6, 9), n=(2, 4, 6), a=(5, 9, 13))
    assert _dp_peak_states(mp) == 207_025
    with pytest.raises(BudgetError):
        dp_exact_prob(mp, state_budget=207_024)
    assert _dp_peak_states(ModelParams(q=0.5, m=(2,), n=(2,), a=(-5,))) == 0


def test_dp_peak_states_is_attained(monkeypatch):
    step, peak = growthdist.oracle._dp_step, [0]

    def counting(*args):
        states, mass = step(*args)
        peak[0] = max(peak[0], len(states))
        return states, mass

    monkeypatch.setattr(growthdist.oracle, "_dp_step", counting)
    mp = ModelParams(q=0.5, m=(4, 8), n=(3, 5), a=(7, 11))
    dp_exact_prob(mp)
    assert peak[0] == _dp_peak_states(mp) == 18_876


# ---------------------------------------------------------------------------
# truncated determinantal sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mp",
    [
        ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4)),
        ModelParams(q=0.6, m=(1, 2), n=(1, 3), a=(2, 4)),
        ModelParams(q=0.3, m=(2, 4), n=(1, 2), a=(3, 5)),
    ],
)
def test_truncated_sum_matches_transfer_matrix(mp):
    assert truncated_sum_prob(mp) == pytest.approx(dp_exact_prob(mp), abs=1e-12)


def test_truncated_sum_stable_under_margin():
    mp = ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4))
    base = truncated_sum_prob(mp)
    for margin in (2, 5):
        assert truncated_sum_prob(mp, margin=margin) == pytest.approx(base, abs=1e-12)


def test_truncated_sum_budget():
    mp = ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4))
    with pytest.raises(BudgetError):
        truncated_sum_prob(mp, budget=1)


# ---------------------------------------------------------------------------
# summation-by-parts certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summation_by_parts_identities(seed):
    assert verify_sbp(seed=seed, trials=4) < 1e-12
