"""Finite-size multipoint probabilities via the theta-contour determinant."""

from __future__ import annotations

import numpy as np
import pytest

from growthdist.errors import BudgetError, ConvergenceError
from growthdist.exact import (
    _Assembler,
    _terms,
    det_theta,
    multipoint_prob_exact,
)
import growthdist.exact
import growthdist.integrands
import growthdist.linalg
import growthdist.params
from growthdist.integrands import circle
from growthdist.linalg import _theta_integral
from growthdist.oracle import dp_exact_prob, truncated_sum_prob
from growthdist.params import ModelParams

P2 = ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, 4))
P3 = ModelParams(q=0.4, m=(3, 6, 9), n=(2, 4, 6), a=(5, 9, 13))


# ---------------------------------------------------------------------------
# single-point determinant
# ---------------------------------------------------------------------------

def test_single_point_single_cell_geometric():
    for q in (0.3, 0.7):
        for a in (1, 2, 4):
            res = multipoint_prob_exact(ModelParams(q=q, m=(1,), n=(1,), a=(a,)))
            assert res.value == pytest.approx(1 - q ** a, abs=1e-10)
            assert res.converged


def test_single_point_strip_negative_binomial():
    # min(m, n) = 1 reduces the passage time to a sum of m geometrics
    from growthdist.oracle import w_weight

    q, m, a = 0.35, 3, 5
    res = multipoint_prob_exact(ModelParams(q=q, m=(m,), n=(1,), a=(a,)))
    cdf = sum(w_weight(x, m, q) for x in range(0, a))
    assert res.value == pytest.approx(cdf, abs=1e-10)


def test_single_point_square_matches_transfer_matrix():
    mp = ModelParams(q=0.5, m=(3,), n=(3,), a=(5,))
    res = multipoint_prob_exact(mp)
    assert res.value == pytest.approx(dp_exact_prob(mp), abs=1e-8)


# ---------------------------------------------------------------------------
# determinant at a single theta point
# ---------------------------------------------------------------------------

def test_det_theta_conjugate_symmetry():
    th = (1.3 + 0.8j,)
    d = det_theta(P2, th)
    dbar = det_theta(P2, (np.conj(th[0]),))
    assert abs(dbar - np.conj(d)) < 1e-13


def test_det_theta_similarity_invariance():
    th = (1.7 - 0.4j,)
    base = det_theta(P2, th)
    shifted = det_theta(P2, th, mu=1.0)
    scaled = det_theta(P2, th, radius_scale=1.15)
    assert abs(shifted - base) / abs(base) < 1e-10
    assert abs(scaled - base) / abs(base) < 1e-10


def test_det_theta_three_point_pinned_value():
    # det_theta of the p = 3 instance at one off-axis theta, recorded from
    # the pure-Python LU evaluation that preceded the LAPACK engine
    mp = ModelParams(q=0.4, m=(3, 6, 9), n=(2, 4, 6), a=(5, 9, 13))
    ref = 0.12033881459083873 + 0.007327673318929652j
    got = det_theta(mp, (1.7 + 0.6j, 1.4 - 0.9j), mu=0.5)
    assert abs(got - ref) / abs(ref) < 1e-10


def test_det_theta_four_point_pinned_value():
    # p = 4 is the smallest size with L_k pieces; the value was recorded
    # from the per-term assembly that formed every coupling anew
    mp = ModelParams(q=0.5, m=(1, 2, 3, 4), n=(1, 2, 3, 4), a=(2, 3, 5, 6))
    ref = -0.02378328555988478 - 0.008215627189621683j
    got = det_theta(mp, (1.3 + 0.4j, 1.6 - 0.5j, 1.2 + 0.9j), nodes=64)
    assert abs(got - ref) / abs(ref) < 1e-12


def test_det_theta_validates_inputs():
    with pytest.raises(ValueError):
        det_theta(ModelParams(q=0.4, m=(1,), n=(1,), a=(1,)), (2.0,))
    with pytest.raises(ValueError):
        det_theta(P2, (2.0, 2.0))


# ---------------------------------------------------------------------------
# multipoint probability
# ---------------------------------------------------------------------------

def test_multipoint_matches_transfer_matrix_small():
    res = multipoint_prob_exact(P2)
    assert res.converged
    assert res.imag_part == pytest.approx(0.0, abs=1e-12)
    assert res.value == pytest.approx(dp_exact_prob(P2), abs=1e-9)


def test_multipoint_matches_truncated_sum():
    mp = ModelParams(q=0.5, m=(2, 3), n=(1, 2), a=(3, 5))
    res = multipoint_prob_exact(mp)
    assert res.value == pytest.approx(truncated_sum_prob(mp), abs=1e-9)


def test_multipoint_forced_zero_event():
    mp = ModelParams(q=0.5, m=(2,), n=(2,), a=(1,))
    assert multipoint_prob_exact(mp).value == pytest.approx(0.0625, abs=1e-8)


def test_multipoint_monotone_in_each_threshold():
    vals1 = [
        multipoint_prob_exact(ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(a1, 4))).value
        for a1 in (1, 2, 3)
    ]
    vals2 = [
        multipoint_prob_exact(ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, a2))).value
        for a2 in (3, 4, 5)
    ]
    assert vals1 == sorted(vals1)
    assert vals2 == sorted(vals2)
    for v in vals1 + vals2:
        assert -1e-6 <= v <= 1 + 1e-6


def test_multipoint_invariances():
    base = multipoint_prob_exact(P2).value
    assert multipoint_prob_exact(P2, mu=1.0).value == pytest.approx(base, abs=1e-9)
    assert multipoint_prob_exact(P2, theta_radius=1.6).value == pytest.approx(
        base, abs=1e-9
    )
    assert multipoint_prob_exact(P2, radius_scale=0.9).value == pytest.approx(
        base, abs=1e-9
    )


def test_multipoint_control_errors():
    with pytest.raises(ValueError):
        multipoint_prob_exact(P2, theta_radius=0.9)
    with pytest.raises(ValueError, match="tol must be positive"):
        multipoint_prob_exact(P2, tol=0.0)
    with pytest.raises(ConvergenceError, match="last delta unavailable"):
        multipoint_prob_exact(P2, max_levels=0)
    with pytest.raises(ConvergenceError, match=r"last delta \d"):
        multipoint_prob_exact(P2, max_levels=1, tol=1e-300)
    with pytest.raises(BudgetError):
        multipoint_prob_exact(P2, deadline=0.0)


# ---------------------------------------------------------------------------
# structural properties of the assembled matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mp",
    [
        ModelParams(q=0.3, m=(1, 2, 4), n=(2, 3, 4), a=(3, 5, 6)),
        ModelParams(q=0.5, m=(1, 2, 3, 4), n=(1, 2, 3, 4), a=(2, 3, 5, 6)),
    ],
)
def test_boundary_blocks_are_nilpotent(mp):
    # the boundary pieces only occupy block column s < min(r, p-1), so the
    # (p-1)-th power vanishes identically
    p, n_last = mp.p, mp.n[-1]
    asm = _Assembler(mp, 0.0, 1.0)
    th = tuple(1.2 + 0.4j * k for k in range(1, p))
    b = np.zeros((n_last, n_last), dtype=complex)
    for rows, cols, base, coefs in _terms(asm, 64):
        # the boundary pieces are the only terms confined to one block column
        if cols != slice(0, n_last):
            b[rows, cols] += sum(c(th) for c in coefs) * base
    assert np.abs(b).max() > 0.0
    assert np.abs(np.linalg.matrix_power(b, p - 1)).max() < 1e-12


@pytest.mark.parametrize("radius", [1.6, 2.0, 3.0])
@pytest.mark.parametrize("n_theta", [8, 16, 48])
def test_theta_trapezoid_saturates_with_bandwidth(n_theta, radius):
    # the determinant is a Laurent polynomial in theta, so the truncated
    # trapezoid rule is exact at any radius once the node count clears its
    # bandwidth; every (n_theta, radius) pair is within 5e-13 of one
    # reference, hence within 1e-12 of every other pair
    asm = _Assembler(P2, 0.0, 1.0)
    terms = _terms(asm, 256)
    value = _theta_integral(asm.N, terms, P2.p, radius, n_theta, None)
    ref = _theta_integral(asm.N, terms, P2.p, 2.0, 96, None)
    assert abs(value - ref) < 5e-13
    assert value.real == pytest.approx(dp_exact_prob(P2), abs=1e-9)


# ---------------------------------------------------------------------------
# batched theta engine
# ---------------------------------------------------------------------------

def _p3_level0():
    asm = _Assembler(P3, 0.0, 1.0)
    return asm, _terms(asm, 64)


def test_batched_theta_integral_matches_per_node_sum():
    # the engine tabulates coefficients on the whole grid and batches the
    # determinants; the loop version sums weight * det_theta node by node
    asm, terms = _p3_level0()
    n_theta, radius = 8, 2.0
    value = _theta_integral(asm.N, terms, P3.p, radius, n_theta, None)
    ring = circle(0.0, radius, n_theta)
    w = ring.weights / (ring.nodes - 1.0) * (1.0 - ring.nodes ** (-(n_theta // 2)))
    ref = sum(
        w[i] * w[j] * det_theta(P3, (ring.nodes[i], ring.nodes[j]), nodes=64)
        for i in range(n_theta) for j in range(n_theta)
    )
    assert abs(value - ref) / abs(ref) < 1e-13


def test_batched_theta_integral_independent_of_chunk_size(monkeypatch):
    asm, terms = _p3_level0()
    batched = _theta_integral(asm.N, terms, P3.p, 2.0, 8, None)
    monkeypatch.setattr(growthdist.linalg, "_DET_BATCH_BYTES", 1)  # one matrix per chunk
    single = _theta_integral(asm.N, terms, P3.p, 2.0, 8, None)
    assert abs(single - batched) <= 1e-15


def test_theta_coefficients_tabulated_once_per_level(monkeypatch):
    # one level's coefficient work must not scale with the theta node count
    calls = [0]
    profile = growthdist.params.theta_profile

    def counting(*args):
        calls[0] += 1
        return profile(*args)

    monkeypatch.setattr(growthdist.params, "theta_profile", counting)
    monkeypatch.setattr(growthdist.exact, "theta_profile", counting)
    asm, terms = _p3_level0()
    counts = []
    for n_theta in (8, 16, 32):
        calls[0] = 0
        _theta_integral(asm.N, terms, P3.p, 2.0, n_theta, None)
        counts.append(calls[0])
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


@pytest.mark.parametrize("mp", [P2, P3], ids=["p2", "p3"])
def test_each_contour_coupling_formed_once_per_level(monkeypatch, mp):
    pairs = []
    cauchy = growthdist.integrands._cauchy

    def counting(a, b):
        pairs.append((a.tobytes(), b.tobytes()))
        return cauchy(a, b)

    monkeypatch.setattr(growthdist.integrands, "_cauchy", counting)
    asm = _Assembler(mp, 0.0, 1.0)
    for nn in (64, 128):
        pairs.clear()
        _terms(asm, nn)
        assert pairs
        assert len(set(pairs)) == len(pairs)
