"""Scaling constants, parameter containers, and index bookkeeping."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from growthdist.errors import SchemaError
from growthdist.params import (
    _sign_windows,
    KPZParams,
    Laurent,
    LimitParams,
    ModelParams,
    admissible_eps,
    big_theta,
    compute_constants,
    delta,
    delta_txxi,
    delta_x,
    delta_xi,
    discretize,
    eps_canonical,
    eps_sign_exponent,
    instance_digest,
    mu_bound,
    parse_instance,
    theta_eps_power,
    theta_profile,
)

QS = [0.1, 0.25, 0.3, 0.5, 0.7, 0.9]


# ---------------------------------------------------------------------------
# scaling constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", QS)
def test_constants_product_identity(q):
    c = compute_constants(q)
    assert c.w_c == pytest.approx(1.0 - math.sqrt(q), abs=1e-15)
    # c0 * c4 collapses to the critical point w_c for every q
    assert c.c0 * c.c4 == pytest.approx(c.w_c, abs=1e-14)


@pytest.mark.parametrize("q", QS)
def test_constants_defining_forms(q):
    c = compute_constants(q)
    sq = math.sqrt(q)
    assert c.c0 == pytest.approx(q ** (-1 / 3) * (1 + sq) ** (1 / 3), rel=1e-14)
    assert c.c1 == pytest.approx(q ** (-1 / 6) * (1 + sq) ** (2 / 3), rel=1e-14)
    assert c.c2 == pytest.approx(2 * sq / (1 - sq), rel=1e-14)
    assert c.c3 == pytest.approx(q ** (1 / 6) * (1 + sq) ** (1 / 3) / (1 - sq), rel=1e-14)


def test_constants_quarter_point_values():
    c = compute_constants(0.25)
    assert c.c2 == pytest.approx(2.0, abs=1e-14)
    assert c.c0 == pytest.approx(6.0 ** (1 / 3), rel=1e-14)
    assert c.w_c == 0.5


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.4])
def test_constants_domain(q):
    with pytest.raises(SchemaError):
        compute_constants(q)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_model_params_accessors():
    mp = ModelParams(q=0.3, m=(1, 2, 4), n=(2, 3, 4), a=(3, 5, 6))
    assert mp.p == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q=1.2, m=(1,), n=(1,), a=(1,)),          # q outside (0, 1)
        dict(q=0.5, m=(0,), n=(1,), a=(1,)),          # corner below 1
        dict(q=0.5, m=(2, 1), n=(1, 2), a=(1, 2)),    # m not increasing
        dict(q=0.5, m=(1, 2), n=(2, 2), a=(1, 2)),    # n not strictly increasing
        dict(q=0.5, m=(1, 2), n=(1, 2), a=(1,)),      # length mismatch
        dict(q=0.5, m=(), n=(), a=()),                # empty
        dict(q=0.5, m=(1.5,), n=(1,), a=(1,)),        # non-integer corner
    ],
)
def test_model_params_validation(kwargs):
    with pytest.raises(SchemaError):
        ModelParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=(2.0, 1.0), x=(0.0, 0.0), xi=(0.0, 0.0)),   # t not increasing
        dict(t=(0.0,), x=(0.0,), xi=(0.0,)),               # t not positive
        dict(t=(1.0,), x=(0.0, 0.0), xi=(0.0,)),           # length mismatch
        dict(t=(1.0,), x=(0.0,), xi=(0.0,), mu=-1.0),      # negative mu
    ],
)
def test_limit_params_validation(kwargs):
    with pytest.raises(SchemaError):
        LimitParams(**kwargs)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_flat_instance():
    kpz = KPZParams(q=0.25, T=100.0, t=(1.0,), x=(0.0,), xi=(0.0,))
    mp = discretize(kpz)
    c = compute_constants(0.25)
    assert mp.n == (100,) and mp.m == (100,)
    assert mp.a == (round(c.c2 * 100),)


def test_discretize_rounding_window():
    kpz = KPZParams(q=0.25, T=40.0, t=(1.0, 2.0), x=(0.3, -0.1), xi=(0.2, 0.5))
    mp = discretize(kpz)
    c = compute_constants(0.25)
    for k, (tk, xk, xik) in enumerate(zip(kpz.t, kpz.x, kpz.xi)):
        tt = tk * kpz.T
        assert abs(mp.n[k] - (tt - c.c1 * xk * tt ** (2 / 3))) <= 0.5
        assert abs(mp.m[k] - (tt + c.c1 * xk * tt ** (2 / 3))) <= 0.5
        assert abs(mp.a[k] - (c.c2 * tt + c.c3 * xik * tt ** (1 / 3))) <= 0.5


def test_discretize_rejects_collapsed_corners():
    # widely spread observation points at tiny T collapse after rounding
    kpz = KPZParams(q=0.25, T=2.0, t=(1.0, 1.001), x=(0.0, 0.0), xi=(0.0, 0.0))
    with pytest.raises(SchemaError):
        discretize(kpz)


# ---------------------------------------------------------------------------
# increment calculus
# ---------------------------------------------------------------------------

def test_delta_prepends_zero_base_point():
    t = (1.0, 2.0, 4.0)
    assert delta(t, 0, 2) == pytest.approx(2.0)
    assert delta(t, 1, 3) == pytest.approx(3.0)
    # increments telescope across a middle index
    assert delta(t, 0, 1) + delta(t, 1, 3) == pytest.approx(delta(t, 0, 3))


def test_delta_x_reference_value():
    t, x = (1.0, 2.0), (0.0, 1.0)
    assert delta_x(t, x, 1, 2) == pytest.approx(2.0 ** (2 / 3), rel=1e-14)


def test_delta_xi_scaling_exponent():
    t, xi = (1.0, 9.0), (0.0, 1.0)
    # endpoints are weighted by (t_k / dt)^(1/3)
    assert delta_xi(t, xi, 1, 2) == pytest.approx((9.0 / 8.0) ** (1 / 3), rel=1e-13)
    t2, xi2 = (1.0, 2.0), (0.5, 0.25)
    want = 0.25 * 2.0 ** (1 / 3) - 0.5
    assert delta_xi(t2, xi2, 1, 2) == pytest.approx(want, rel=1e-13)


def test_delta_txxi_bundles_components():
    t, x, xi = (1.0, 3.0), (0.2, -0.4), (0.5, 1.0)
    trip = delta_txxi(t, x, xi, 1, 2)
    assert trip == pytest.approx(
        (delta(t, 1, 2), delta_x(t, x, 1, 2), delta_xi(t, xi, 1, 2))
    )


def test_delta_x_requires_positive_time_increment():
    with pytest.raises(ValueError):
        delta_x((1.0, 1.0), (0.0, 1.0), 1, 2)


# ---------------------------------------------------------------------------
# theta machinery
# ---------------------------------------------------------------------------

THETAS3 = (1.7 + 0.4j, 0.6 - 1.1j)


def _monomial(exponents, thetas) -> complex:
    return complex(math.prod(th ** e for th, e in zip(thetas, exponents)))


def _laurent(poly, thetas) -> complex:
    return sum(c * _monomial(alpha, thetas) for alpha, c in poly.items())


def test_theta_eps_power_is_blockwise_constant():
    n = (2, 4, 6)
    for r in (1, 2, 3):
        eps = eps_canonical(r, 3)
        lo = 1 if r == 1 else n[r - 2] + 1
        vals = {theta_eps_power(i, n, eps, THETAS3) for i in range(lo, n[r - 1] + 1)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(_monomial(theta_profile(r, eps), THETAS3))


def test_theta_canonical_eps_is_unit_on_own_block():
    for p in (2, 3, 4):
        th = tuple(complex(1.3 + 0.2 * j, -0.5 + 0.3 * j) for j in range(p - 1))
        for r in range(1, p + 1):
            assert _monomial(theta_profile(r, eps_canonical(r, p)), th) == pytest.approx(1.0)


def test_theta_profile_all_ones_is_prefix_product():
    # eps = (1, ..., 1) leaves one factor theta_j per component below the block
    for r in (1, 2, 3):
        want = math.prod(THETAS3[: r - 1]) if r > 1 else 1.0
        assert _monomial(theta_profile(r, (1, 1)), THETAS3) == pytest.approx(want)


def test_eps_canonical_structure():
    assert eps_canonical(1, 4) == (1, 1, 1)
    assert eps_canonical(3, 4) == (2, 2, 1)
    assert eps_canonical(4, 4) == (2, 2, 2)
    with pytest.raises(ValueError):
        eps_canonical(0, 3)
    with pytest.raises(ValueError):
        eps_canonical(4, 3)


def test_big_theta_difference_of_profiles():
    p = 4
    th = (1.2 + 0.3j, 0.8 - 0.6j, 1.5 + 0.1j)
    for r in range(1, p + 1):
        for k in range(1, min(r, p - 1)):
            want = _monomial(theta_profile(r, eps_canonical(k, p)), th) - _monomial(
                theta_profile(r, eps_canonical(k + 1, p)), th
            )
            assert _laurent(big_theta(r, k, p), th) == pytest.approx(want)


def test_big_theta_vanishes_outside_window():
    p = 4
    th = (1.2 + 0.3j, 0.8 - 0.6j, 1.5 + 0.1j)
    assert _laurent(big_theta(2, 2, p), th) == 0.0   # k >= min(r, p-1)
    assert _laurent(big_theta(4, 3, p), th) == 0.0   # k >= p - 1
    assert _laurent(big_theta(3, 0, p), th) == 0.0   # k < 1
    # the corner block r = p keeps its full window 1..p-2
    assert _laurent(big_theta(4, 2, p), th) != 0.0


def test_laurent_arithmetic_matches_pointwise_values():
    # the symbolic coefficients of the limit blocks evaluate to their
    # scalar formulas; keys drop trailing zeros and exact zeros cancel
    p = 4
    th = (1.2 + 0.3j, 0.8 - 0.6j, 1.5 + 0.1j)
    tr, ts = big_theta(4, 1, p), big_theta(3, 2, p)
    a, b = _laurent(tr, th), _laurent(ts, th)
    assert _laurent(tr - (1 + tr) * (1 + ts), th) == pytest.approx(a - (1 + a) * (1 + b))
    assert _laurent(-tr * (1 + ts), th) == pytest.approx(-a * (1 + b))
    assert Laurent.monomial((0, 0)) == Laurent.monomial(()) == {(): 1.0}
    assert Laurent.monomial((2, -1, 0)) == {(2, -1): 1.0}
    assert tr - tr == {} and 0 * tr == {}


def test_admissible_eps_windows():
    assert set(admissible_eps(0, 3, 3)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert set(admissible_eps(2, 3, 3)) == {(2, 1), (2, 2)}
    # positions above min(k2, p-1) are forced to 1
    assert set(admissible_eps(0, 1, 3)) == {(1, 1), (2, 1)}
    # positions below max(k1, 1) are forced to 2
    for eps in admissible_eps(2, 4, 4):
        assert eps[0] == 2


def test_eps_sign_exponent_sums_window_entries():
    p = 4
    for k1, k2 in [(0, 4), (1, 3), (0, 2), (2, 4)]:
        lo, hi = max(1, k1), min(k2, p - 1)
        for eps in admissible_eps(k1, k2, p):
            want = sum(eps[k - 1] for k in range(lo, hi + 1))
            assert eps_sign_exponent(eps, k1, k2, p) == want
            ones = sum(1 for k in range(lo, hi + 1) if eps[k - 1] == 1)
            assert eps_sign_exponent(eps, k1, k2, p) % 2 == ones % 2


@pytest.mark.parametrize("p", range(1, 7))
def test_sign_windows_give_the_per_eps_limit_coefficients(p):
    # each window's limit coefficient (-1)^(k1+k2) sum sign theta(r|eps), as
    # asymptotic._block_terms forms it from the shared walk, is the sum over
    # the window's sign vectors of (-1)^(eps[k1,k2] + [k2 = p]) theta(r|eps);
    # the windows of a pair partition its admissible sign vectors
    windows = {}
    for k1, k2, window, signed in _sign_windows(p):
        assert all(eps[k1:k2 - 1] == window for _, eps in signed)
        windows.setdefault((k1, k2), []).extend(eps for _, eps in signed)
        for r in range(1, p + 1):
            got = sum((Laurent.monomial(theta_profile(r, eps), (-1) ** (k1 + k2) * sign)
                       for sign, eps in signed), Laurent())
            want = sum((Laurent.monomial(theta_profile(r, eps),
                                         (-1) ** (eps_sign_exponent(eps, k1, k2, p) + (k2 == p)))
                        for eps in admissible_eps(k1, k2, p) if eps[k1:k2 - 1] == window),
                       Laurent())
            assert got == want and got
    pairs = [(k1, k2) for k2 in range(1, p + 1) for k1 in range(k2)]
    assert sorted(windows) == sorted(pairs)
    for (k1, k2), eps in windows.items():
        assert sorted(eps) == sorted(admissible_eps(k1, k2, p))


def test_mu_bound_value():
    t, x = (1.0, 2.0), (0.0, 0.5)
    spread = 0.5 * 2.0 ** (2 / 3)
    assert mu_bound(t, x) == pytest.approx(spread / 1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# instance documents
# ---------------------------------------------------------------------------

def test_parse_instance_three_schemas():
    mp = parse_instance({"q": 0.4, "m": [1, 2], "n": [1, 3], "a": [2, 4]})
    assert isinstance(mp, ModelParams) and mp.p == 2
    kpz = parse_instance(
        {"q": 0.25, "T": 20, "t": [1, 2], "x": [0, 0], "xi": [0.2, 0.4]}
    )
    assert isinstance(kpz, KPZParams) and kpz.T == 20.0
    lim = parse_instance({"t": [1, 2], "x": [0, 0], "xi": [0.2, 0.4], "mu": 1.0})
    assert isinstance(lim, LimitParams) and lim.mu == 1.0


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"q": 0.4},
        {"q": 0.4, "m": [1], "n": [1], "a": [1], "T": 2},       # mixed schemas
        {"q": 0.4, "m": [1], "n": [1], "a": [1], "zzz": 1},     # unexpected key
        {"q": 1.4, "m": [1], "n": [1], "a": [1]},               # bad q
        {"t": [2, 1], "x": [0, 0], "xi": [0, 0]},               # bad ordering
    ],
)
def test_parse_instance_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        parse_instance(doc)


def test_numpy_numbers_are_numbers():
    mp = parse_instance({"q": np.float64(0.4), "m": np.array([1, 3]), "n": [np.int64(1), 2],
                         "a": [2.0, 4], "p": np.int32(2)})
    assert (mp.m, mp.n, mp.a) == ((1, 3), (1, 2), (2, 4))
    lim = parse_instance({"t": np.array([1.0, 2.0]), "x": [0, np.float32(0.5)],
                          "xi": [0.2, 0.4], "mu": np.float64(1.5)})
    assert lim.x == (0.0, 0.5) and lim.mu == 1.5


@pytest.mark.parametrize(
    "text",
    [
        '{"q": 0.5, "m": [1, 3], "n": [1, 2], "a": [2, 1e400]}',    # overflowing int
        '{"q": NaN, "m": [1], "n": [1], "a": [1]}',
        '{"t": [1, 2], "x": [0, NaN], "xi": [0, 0]}',
        '{"t": [1, Infinity], "x": [0, 0], "xi": [0, 0]}',
        '{"t": [1], "x": [0], "xi": [-Infinity]}',
        '{"t": [1], "x": [0], "xi": [0], "mu": Infinity}',
        '{"t": [1], "x": [0], "xi": [0], "mu": NaN}',
        '{"q": 0.25, "T": Infinity, "t": [1], "x": [0], "xi": [0]}',
        '{"q": 0.25, "T": NaN, "t": [1], "x": [0], "xi": [0]}',
        '{"q": 0.25, "T": 20, "t": [1], "x": [NaN], "xi": [0]}',
    ],
)
def test_parse_instance_rejects_non_finite(text):
    # Python's json module reads 1e400 as inf and accepts NaN/Infinity
    with pytest.raises(SchemaError):
        parse_instance(json.loads(text))


def test_instance_digest_canonical():
    a = {"q": 0.4, "m": [1, 2], "n": [1, 3], "a": [2, 4]}
    b = {"a": [2, 4], "n": [1, 3], "m": [1, 2], "q": 0.4}
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest({**a, "q": 0.5})
    assert len(instance_digest(a)) == 64
