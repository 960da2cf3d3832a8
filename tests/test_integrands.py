"""Contour quadrature, the scalar integrand factors, and the Airy evaluator."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.special

import growthdist.integrands
from growthdist.integrands import (
    _airy,
    _Chain,
    _walk_chains,
    airy_ai,
    airy_kernel_matrix,
    circle,
    composite_gl,
    gauss_legendre,
    gstar_at,
    log_g,
    log_gstar,
    log_script_g,
    wedge,
)
from growthdist.params import compute_constants


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(0.0, 1.0, 6)
    assert np.sum(w * x ** 3) == pytest.approx(0.25, abs=1e-15)
    xc, wc = composite_gl(0.0, 1.0, 36, panel_size=12)
    assert np.sum(wc * xc ** 3) == pytest.approx(0.25, abs=1e-14)
    assert np.sum(wc * np.exp(xc)) == pytest.approx(math.e - 1.0, rel=1e-13)


def test_circle_weights_absorb_cauchy_measure():
    c = circle(0.0, 1.0, 16)
    # oint dz/(2 pi i z) = 1 and oint dz/(2 pi i) = 0
    assert np.sum(c.weights / c.nodes) == pytest.approx(1.0, abs=1e-14)
    assert abs(np.sum(c.weights)) < 1e-14
    assert c.integrate(1.0 / c.nodes) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("radius", [1.5, 2.0, 3.0])
def test_circle_residue_identities_radius_invariant(radius):
    # trapezoid aliasing decays like radius^(-nodes), so 96 nodes clear
    # 1e-12 even at the tightest radius
    c = circle(0.0, radius, 96)
    for ell in (-3, -1, 0, 2, 5):
        want = 1.0 if ell >= 0 else 0.0
        got = c.integrate(c.nodes ** ell / (c.nodes - 1.0))
        assert got == pytest.approx(want, abs=1e-12)


def test_circle_node_doubling_stable():
    f = lambda z: np.exp(z) / (z - 0.5)
    lo = circle(0.0, 2.0, 48)
    hi = circle(0.0, 2.0, 96)
    assert lo.integrate(f(lo.nodes)) == pytest.approx(
        hi.integrate(f(hi.nodes)), abs=1e-12
    )


@pytest.mark.parametrize("anchor, angle", [(0.5, 75.0), (1.2, 60.0), (-0.5, 105.0), (-1.2, 120.0)],
                         ids=["right-75", "right-60", "left-105", "left-120"])
def test_wedge_evaluates_airy_integral(anchor, angle):
    # Ai(x) = (1/(2 pi i)) int exp(w^3/3 - x w) dw on a wedge opening right,
    # and the same integral of exp(-w^3/3 + x w) on one opening left (w -> -w)
    x = np.array([-3.0, -1.0, 0.0, 0.7, 2.0])
    sign = 1.0 if anchor > 0 else -1.0
    c = wedge(anchor, math.radians(angle), 7.0, 16)
    assert len(c) == 2 * 16 * 12
    assert np.allclose(c.nodes[::-1], c.nodes.conj())
    assert np.allclose(c.weights[::-1], c.weights.conj())
    got = np.exp(sign * (c.nodes[None, :] ** 3 / 3.0 - x[:, None] * c.nodes[None, :])) @ c.weights
    assert np.abs(got.imag).max() < 1e-13
    assert np.abs(got.real - airy_ai(x)).max() < 1e-13


def _walk_conjugate_rules(monkeypatch):
    """Walk chains on rules closed under conjugation; return what the tests check.

    The chains share prefixes, end at different depths, cross the pair
    (1, 2) at two depths and share column factors; a link is (contour,
    scale the columns?).  The rules are even-count circles centred on the
    real axis and one wedge (contour 3); rows, scales and columns
    are polynomials with real coefficients (the columns in contour 2's
    nodes, for every job), so every chain is real.  Returns the jobs, the
    walk's values, the direct products over the full rules, the shapes of
    the Cauchy matrices formed (one entry per formation) and the column
    factors made.
    """
    rng = np.random.default_rng(5)
    full = {c: circle(float(c), 0.2 + 0.05 * c, 16).nodes for c in range(3)}
    full[3] = wedge(0.5, math.radians(75.0), 2.0, 1, panel_size=8).nodes
    half = {c: z[:8] for c, z in full.items()}
    assert all(np.allclose(z[::-1], z.conj()) for z in full.values())

    def poly(coef, z):
        return np.polynomial.polynomial.polyval(z, coef)

    row_coef = {c: rng.normal(size=(3, 5)) for c in full}
    scale_coef = {c: rng.normal(size=3) for c in full}
    col_coef = {k: rng.normal(size=(3, 3)) for k in range(2)}
    jobs = [
        _Chain(((0, False), (1, True), (2, False)), 0, 1.0),
        _Chain(((0, False), (1, True), (3, True), (2, False)), 1, -2.0),
        _Chain(((0, False), (1, False)), 0, 3.0),
        _Chain(((3, False), (1, True), (2, False)), 1, -4.0),
        _Chain(((0, False), (3, True), (1, True), (2, True)), 0, 5.0),
        _Chain(((0, False), (1, True), (2, False)), 1, -6.0),
    ]
    formed, made = [], []
    cauchy = growthdist.integrands._cauchy

    def counting(a, b):
        formed.append((a.tobytes(), b.tobytes(), len(a), len(b)))
        return cauchy(a, b)

    monkeypatch.setattr(growthdist.integrands, "_cauchy", counting)
    got = _walk_chains(
        jobs, nodes=lambda key: half[key],
        rows=lambda link: poly(row_coef[link[0]], half[link[0]]),
        scale=lambda link: poly(scale_coef[link[0]], half[link[0]]) if link[1] else None,
        cols=lambda key: made.append(key) or poly(col_coef[key], half[2]).T,
    )
    direct = {}
    for job in jobs:
        a = job.links[0][0]
        ref = poly(row_coef[a], full[a])
        for (a, _), (b, scaled) in zip(job.links, job.links[1:]):
            ref = ref @ (1.0 / (full[a][:, None] - full[b][None, :]))
            if scaled:
                ref = ref * poly(scale_coef[b], full[b])[None, :]
        direct[job] = (ref @ poly(col_coef[job.cols], full[2]).T) / job.sign
    return jobs, got, direct, formed, made


def test_chain_walk_matches_direct_products(monkeypatch):
    jobs, got, direct, formed, made = _walk_conjugate_rules(monkeypatch)
    assert set(got) == set(jobs)
    for job in jobs:
        np.testing.assert_allclose(got[job], direct[job], rtol=1e-13)
    # each coupling is formed once, each column factor made once
    pairs = {(a[0], b[0]) for job in jobs for a, b in zip(job.links, job.links[1:])}
    assert len(formed) == len(set(formed)) == len(pairs)
    assert sorted(made) == [0, 1]


def test_mirrored_walk_matches_full_products(monkeypatch):
    # the walk keeps one node of each conjugate pair: every coupling maps
    # the kept nodes of one contour onto both halves of the next, and the
    # folded products are the full-rule products, real
    jobs, got, direct, formed, _ = _walk_conjugate_rules(monkeypatch)
    assert all((n_a, n_b) == (8, 16) for *_, n_a, n_b in formed)
    for job in jobs:
        assert np.isrealobj(got[job])
        np.testing.assert_allclose(got[job], direct[job].real, rtol=1e-13)
        np.testing.assert_allclose(direct[job].imag, 0.0, atol=1e-12 * np.abs(direct[job]).max())


# ---------------------------------------------------------------------------
# discrete integrand factor
# ---------------------------------------------------------------------------

def test_gstar_matches_elementary_product():
    q, w = 0.37, 0.3 + 0.2j
    n, m, a = 3, 2, 4
    want = w ** n * (1 - w) ** (a + m) * (1 - w / (1 - q)) ** (-m)
    assert gstar_at(w, n, m, a, q) == pytest.approx(want, rel=1e-13)
    assert gstar_at(w, 0, 0, 0, q) == pytest.approx(1.0)


def test_gstar_exponent_group_property():
    # gstar multiplies when the integer exponent triples add
    rng = np.random.default_rng(42)
    q = 0.37
    worst = 0.0
    for _ in range(100):
        w = (rng.uniform(0.1, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        n1, m1, a1 = rng.integers(-3, 6, size=3)
        n2, m2, a2 = rng.integers(-3, 6, size=3)
        v1 = gstar_at(w, int(n1), int(m1), int(a1), q) * gstar_at(
            w, int(n2), int(m2), int(a2), q
        )
        v2 = gstar_at(w, int(n1 + n2), int(m1 + m2), int(a1 + a2), q)
        worst = max(worst, abs(v1 - v2) / abs(v2))
    assert worst < 1e-10


def test_log_g_normalizes_at_critical_point():
    q = 0.37
    wc = 1.0 - math.sqrt(q)
    assert abs(log_g(wc, 2, 3, 4, q)) < 1e-13
    # two evaluation paths of the same normalized factor
    w = 0.25 - 0.4j
    direct = np.exp(log_g(w, 2, 3, 4, q))
    ratio = gstar_at(w, 2, 3, 4, q) / gstar_at(wc, 2, 3, 4, q)
    assert direct == pytest.approx(ratio, rel=1e-12)


def test_annular_expansion_of_cauchy_transform():
    # on a circle inside |z|, 1/(z - zeta) expands into sum_k zeta^{k-1} z^{-k};
    # the truncation closes exactly once the powers clear the zero at zeta = 0
    q, tau = 0.4, 0.3
    c = circle(0.0, tau, 256)
    quad = lambda f: c.integrate(f(c.nodes))
    i, m, a, big_n = 3, 2, 4, 5
    for z in (0.8 + 0.3j, -1.2 + 0.1j):
        lhs = quad(lambda zc: 1.0 / (gstar_at(zc, i, m, a, q) * (z - zc)))
        rhs = sum(
            z ** (-k) * quad(lambda zc, k=k: 1.0 / gstar_at(zc, i - k + 1, m, a, q))
            for k in range(1, big_n + 1)
        )
        assert abs(lhs - rhs) < 1e-10


def test_polynomial_part_of_cauchy_transform():
    q, tau = 0.4, 0.3
    c = circle(0.0, tau, 256)
    quad = lambda f: c.integrate(f(c.nodes))
    m, a, big_n, j = 2, 4, 5, 2
    for z in (0.9 - 0.4j, 1.1 + 0.2j):
        lhs = quad(
            lambda zc: z ** (big_n + 1)
            / (gstar_at(zc, big_n + 1 - j, m, a, q) * (z - zc))
        )
        rhs = sum(
            z ** k * quad(lambda zc, k=k: 1.0 / gstar_at(zc, k - j + 1, m, a, q))
            for k in range(1, big_n + 1)
        )
        assert abs(lhs - rhs) < 1e-10


def test_geometric_ladder_sum_telescopes():
    # sum_{N1 < l <= N2} 1/(g(w1|n-l+1) g(w2|l-n')) collapses to a boundary
    # difference weighted by w_c/(w1 - w2)
    rng = np.random.default_rng(7)
    q = 0.4
    wc = 1 - math.sqrt(q)
    g = lambda w, n, mm, aa: np.exp(log_g(w, n, mm, aa, q))
    n1, n2 = 1, 6
    n, m1, a1 = 4, 2, 5
    npr, m2, a2 = 1, 3, 2
    for _ in range(5):
        w1 = 0.4 + 0.2 * rng.standard_normal() + 0.5j * rng.standard_normal()
        w2 = -0.3 + 0.2 * rng.standard_normal() + 0.4j * rng.standard_normal()
        lhs = sum(
            1.0 / (g(w1, n - el + 1, m1, a1) * g(w2, el - npr, m2, a2))
            for el in range(n1 + 1, n2 + 1)
        )
        rhs = (
            wc
            / (w1 - w2)
            * (
                1.0 / (g(w1, n - n2, m1, a1) * g(w2, n2 - npr, m2, a2))
                - 1.0 / (g(w1, n - n1, m1, a1) * g(w2, n1 - npr, m2, a2))
            )
        )
        assert abs(lhs - rhs) / abs(rhs) < 1e-10


# ---------------------------------------------------------------------------
# scaled integrand factor
# ---------------------------------------------------------------------------

def test_log_script_g_closed_form():
    w, t, x, xi = 0.4 + 0.55j, 1.3, 0.3, 0.7
    t13 = t ** (1 / 3)
    want = t * w ** 3 / 3 + x * t13 ** 2 * w ** 2 - xi * t13 * w
    assert log_script_g(w, t, x, xi) == pytest.approx(want, rel=1e-14)


def test_discrete_factor_converges_to_scaled_factor():
    # the critically normalized discrete factor approaches the cubic weight
    # at rate K^(-1/3) when the corners follow the standard discretization
    q = 0.25
    c = compute_constants(q)
    x, xi, t = 0.3, 0.7, 1.3
    v = 0.4 + 0.55j
    errs = []
    for big_k in (1_000, 8_000, 64_000):
        tk = t * big_k
        n = round(tk - c.c1 * x * tk ** (2 / 3))
        m = round(tk + c.c1 * x * tk ** (2 / 3))
        a = round(c.c2 * tk + c.c3 * xi * tk ** (1 / 3))
        tkeff = (n + m) / 2
        xhat = (m - n) / (2 * c.c1 * tkeff ** (2 / 3))
        xihat = (a - c.c2 * tkeff) / (c.c3 * tkeff ** (1 / 3))
        w = (1 - math.sqrt(q)) + c.c4 * v / big_k ** (1 / 3)
        errs.append(
            abs(log_g(w, n, m, a, q) - log_script_g(v, tkeff / big_k, xhat, xihat))
        )
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]
    assert errs[2] < 5e-3


# ---------------------------------------------------------------------------
# Airy function and Airy kernel
# ---------------------------------------------------------------------------

def test_airy_value_at_zero():
    want = 3.0 ** (-2 / 3) / math.gamma(2 / 3)
    assert airy_ai(0.0) == pytest.approx(want, abs=1e-14)


def test_airy_against_scipy_on_wide_range():
    s = np.linspace(-30.0, 8.0, 377)
    ref = scipy.special.airy(s)[0]
    assert np.max(np.abs(airy_ai(s) - ref)) < 1e-12


def test_airy_ode_residual():
    h = 1e-3
    for s in (-2.0, 0.0, 2.0):
        second = (airy_ai(s + h) - 2 * airy_ai(s) + airy_ai(s - h)) / h ** 2
        assert abs(second - s * airy_ai(s)) < 1e-6


def test_airy_decay_and_domain():
    assert airy_ai(8.0) < 1e-7
    with pytest.raises(ValueError):
        airy_ai(-61.0)


def test_airy_kernel_symmetry_and_positivity():
    a = np.linspace(-1.0, 2.0, 7)
    k = airy_kernel_matrix(a, a)
    assert np.max(np.abs(k - k.T)) < 1e-13
    eig = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert eig.min() > -1e-12
    assert eig.max() < 1.0


def test_airy_kernel_against_direct_quadrature():
    lam, w = composite_gl(0.0, 40.0, 192, panel_size=12)
    direct = np.sum(w * scipy.special.airy(0.3 + lam)[0] * scipy.special.airy(-0.5 + lam)[0])
    got = airy_kernel_matrix(np.array([0.3]), np.array([-0.5]))[0, 0]
    assert got == pytest.approx(direct, rel=1e-9)


def test_airy_prime_against_scipy():
    s = np.linspace(-10.0, 50.0, 1201)
    ref = scipy.special.airy(s)[1]
    assert np.max(np.abs(_airy(s)[1] - ref)) < 1e-12


def test_airy_right_tail_is_relatively_accurate():
    # Ai falls to 1e-79 by s = 60, so an absolute check says nothing there
    s = np.concatenate([np.linspace(2.0, 60.0, 233)[1:], [np.nextafter(2.0, 3.0)]])
    ai, aip = _airy(s)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(x)) for x in s])
        refp = np.array([float(mpmath.airyai(x, derivative=1)) for x in s])
    assert np.max(np.abs(ai / ref - 1.0)) < 1e-13
    assert np.max(np.abs(aip / refp - 1.0)) < 1e-13


def test_airy_agrees_across_the_series_switch():
    # s = 2 takes the series, the next double the steepest-descent path;
    # at 2 the series has not yet lost digits to cancellation
    s = np.array([2.0, np.nextafter(2.0, 3.0)])
    ai, aip = _airy(s)
    assert ai[0] == pytest.approx(ai[1], rel=1e-13, abs=0)
    assert aip[0] == pytest.approx(aip[1], rel=1e-13, abs=0)


def test_airy_kernel_at_coincident_off_diagonal_points():
    # a_i == b_j off the diagonal takes the limit form Ai'(a)^2 - a Ai(a)^2
    a, b = np.array([0.3, -0.5]), np.array([-0.5, 0.3])
    lam, w = composite_gl(0.0, 40.0, 192, panel_size=12)
    ai = {x: scipy.special.airy(x + lam)[0] for x in (0.3, -0.5)}
    direct = np.array([[np.sum(w * ai[x] * ai[y]) for y in b] for x in a])
    got = airy_kernel_matrix(a, b)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - direct)) < 1e-9
