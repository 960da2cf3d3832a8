"""Finite-size multipoint probabilities via the theta-contour determinant."""

from __future__ import annotations

import inspect
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from growthdist.cli import main
from growthdist.errors import BudgetError, ConvergenceError
from growthdist.exact import (
    _Assembler,
    _pieces,
    _terms,
    det_theta,
    multipoint_prob_exact,
)
import growthdist.exact
import growthdist.integrands
import growthdist.linalg
from growthdist.integrands import circle
from growthdist.linalg import _dets, _first_level, _pack, _refined_count, _theta_integral
from growthdist.oracle import _dp_peak_states, dp_exact_prob, truncated_sum_prob
from growthdist.params import KPZParams, ModelParams, discretize, parse_instance

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


SINGLE_POINT_STATES = 2 * 10 ** 5  # DP states allowed per generated corner


@st.composite
def single_corners(draw):
    """One corner in [1, 6]^2 and a threshold from 1 to the mean plus 4,
    capped where the DP would hold more than ``SINGLE_POINT_STATES``."""
    q = draw(st.floats(0.15, 0.65))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mean = round(q / (1.0 - q) * (math.sqrt(m) + math.sqrt(n)) ** 2)
    cap = max(c for c in range(1, mean + 5)
              if _dp_peak_states(ModelParams(q, (m,), (n,), (c,))) <= SINGLE_POINT_STATES)
    return ModelParams(q=q, m=(m,), n=(n,), a=(draw(st.integers(1, cap)),))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(single_corners())
# a long strip that exited 3 before the swap put its short side in n
@example(ModelParams(q=0.6, m=(2,), n=(48,), a=(130,)))
def test_single_point_matches_transfer_matrix(params):
    # p = 1 runs the L_p chain of the multi-point assembly at threshold a - 1
    assert abs(multipoint_prob_exact(params).value - dp_exact_prob(params)) < 1e-9


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="ROADMAP item 4: a deep tail of a long strip (m >> n) "
                   "does not converge")
def test_single_point_deep_tail_of_a_long_strip():
    # min(m, n) = 1 makes G(46, 1) a sum of 46 geometrics, 1.673e-11 below 8
    from growthdist.oracle import w_weight

    q = 0.580621675502883
    cdf = sum(w_weight(x, 46, q) for x in range(8))
    res = multipoint_prob_exact(ModelParams(q=q, m=(46,), n=(1,), a=(8,)))
    assert abs(res.value - cdf) < 1e-9


def test_exact_runs_the_short_side():
    # n_2 > m_2: the run computes the swapped instance, the same law since
    # the weights are i.i.d., and reports its diagnostics
    tall = ModelParams(q=0.45, m=(1, 3), n=(2, 5), a=(3, 7))
    wide = ModelParams(q=tall.q, m=tall.n, n=tall.m, a=tall.a)
    res, ref = multipoint_prob_exact(tall), multipoint_prob_exact(wide)
    assert res == ref
    assert res.value == pytest.approx(dp_exact_prob(tall), abs=1e-9)


# ---------------------------------------------------------------------------
# determinant at a single theta point
# ---------------------------------------------------------------------------

def test_det_theta_conjugate_symmetry():
    # the Laurent coefficients and the bases are real, so det(I + F(conj theta))
    # is the conjugate of det(I + F(theta)); p = 3 and 4 bring in Theta(r|k)
    # and the L_k pieces
    p4 = ModelParams(q=0.5, m=(1, 2, 3, 4), n=(1, 2, 3, 4), a=(2, 3, 5, 6))
    for mp, th in [
        (P2, (1.3 + 0.8j,)),
        (P3, (1.7 + 0.6j, 1.4 - 0.9j)),
        (p4, (1.3 + 0.4j, 1.6 - 0.5j, 1.2 + 0.9j)),
    ]:
        d = det_theta(mp, th)
        dbar = det_theta(mp, tuple(np.conj(th)))
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


def test_exact_interior_time_out_of_reach_at_one_theta():
    # ROADMAP item 2 gate on the exact route: with the middle threshold out
    # of reach, (1/2 pi i) oint det(theta_1, theta_2) dtheta_2 / (theta_2 - 1),
    # the mean of det * theta_2 / (theta_2 - 1) over a theta_2 ring, is the
    # determinant without time 2 (under 1e-15 on 64 nodes; 32 alias to 2e-10)
    mp = discretize(KPZParams(q=0.25, T=20.0, t=(1.0, 1.5, 2.0), x=(0.0, 0.0, 0.0),
                              xi=(0.3, 4.0, 0.7)))
    assert (mp.m, mp.n, mp.a) == ((20, 30, 40), (20, 30, 40), (41, 83, 84))
    theta1 = 2.0 * np.exp(0.7j)
    ring = 2.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    asm = _Assembler(mp, 0.0, 1.0)
    dets = _dets(asm.N, _pack(_terms(asm, 256)), (np.full(64, theta1), ring), None)
    two = ModelParams(q=mp.q, m=(20, 40), n=(20, 40), a=(41, 84))
    assert abs(np.mean(dets * ring / (ring - 1)) - det_theta(two, (theta1,))) < 1e-12


@pytest.mark.parametrize(
    "full, kept, ref",
    [
        (ModelParams(q=0.4, m=(2, 4), n=(2, 3), a=(6, 4)),
         ModelParams(q=0.4, m=(4,), n=(3,), a=(4,)), 0.1745101141130),
        (ModelParams(q=0.4, m=(2, 4, 5), n=(1, 3, 4), a=(4, 4, 7)),
         ModelParams(q=0.4, m=(4, 5), n=(3, 4), a=(4, 7)), 0.1193712766209),
    ],
    ids=["two-points", "three-points"],
)
def test_implied_times_are_dropped(full, kept, ref):
    # G is monotone along ordered corners, so a_k >= a_(k+1) implies time k:
    # the run returns the shorter route's value, the DP's on the full event
    res = multipoint_prob_exact(full)
    assert res.value == pytest.approx(ref, abs=1e-12)
    assert res.value == pytest.approx(multipoint_prob_exact(kept).value, abs=1e-15)
    assert res.value == pytest.approx(dp_exact_prob(full), abs=1e-9)
    assert res.theta_nodes == multipoint_prob_exact(kept).theta_nodes


def test_far_apart_thresholds_reduce_to_one_corner():
    # a_1 >= a_2 makes the event P(G(20, 20) < 18); the two-time theta rule
    # of these thresholds is not certified within 65536 nodes (tail 1.06)
    res = multipoint_prob_exact(ModelParams(q=0.25, m=(10, 20), n=(10, 20), a=(35, 18)))
    one = multipoint_prob_exact(ModelParams(q=0.25, m=(20,), n=(20,), a=(18,)))
    assert res.value == one.value == pytest.approx(2.8125e-6, rel=1e-4)
    assert res.theta_nodes == 0


def test_det_theta_validates_inputs():
    with pytest.raises(ValueError):
        det_theta(ModelParams(q=0.4, m=(1,), n=(1,), a=(1,)), (2.0,))
    with pytest.raises(ValueError):
        det_theta(P2, (2.0, 2.0))
    for bad in (0.0, math.nan, math.inf, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="finite and non-zero"):
            det_theta(P3, (1.5, bad))


# ---------------------------------------------------------------------------
# multipoint probability
# ---------------------------------------------------------------------------

def test_multipoint_matches_transfer_matrix_small():
    res = multipoint_prob_exact(P2)
    assert res.value == pytest.approx(dp_exact_prob(P2), abs=1e-9)


@pytest.mark.parametrize("params", [P2, P3, ModelParams(q=0.4, m=(3,), n=(2,), a=(5,))],
                         ids=["p2", "p3", "p1"])
def test_imag_part_is_zero_by_construction(params):
    # real bases and a conjugate-symmetric theta torus give real Laurent
    # coefficients; the p = 1 determinant is that of a real matrix
    res = multipoint_prob_exact(params)
    assert isinstance(res.value, float)


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


# Tilted scaled p = 2 configs.  Each reference comes from TIGHT_ROUTE: the
# same formula with contour offsets 1.6 times the default, whose finest
# levels agree to about 1e-11.  All three have n_2 > m_2, so the runs
# compute the swapped instance.
TIGHT_ROUTE = "multipoint_prob_exact(radius_scale=1.6, tol=1e-11)"


@pytest.mark.parametrize(
    "config, ref",
    [
        ({"q": 0.4331, "T": 17.52, "t": [1, 2.871], "x": [0.26, -0.283], "xi": [0.04, 0.509]},
         0.9635884750612387),
        ({"q": 0.4634, "T": 27.69, "t": [1, 1.959], "x": [0.167, -0.236],
          "xi": [-0.229, 0.235]},
         0.9401857554282298),
        ({"q": 0.25, "T": 80, "t": [1, 1.5], "x": [0.1, -0.2], "xi": [0.3, 0.5]},
         0.9704781768551898),
    ],
    ids=["T17.5", "T27.7", "T80"],
)
def test_tilted_scaled_configs_match_a_tighter_route(config, ref):
    res = multipoint_prob_exact(discretize(parse_instance(config)))
    assert abs(res.value - ref) < 1e-9, TIGHT_ROUTE


def test_every_level_has_more_contour_nodes(monkeypatch):
    counts = []
    terms = growthdist.exact._terms

    def recording(asm, nn, **kwargs):
        counts.append(nn)
        return terms(asm, nn, **kwargs)

    monkeypatch.setattr(growthdist.exact, "_terms", recording)
    with pytest.raises(ConvergenceError, match="at level 6"):
        multipoint_prob_exact(P2, tol=1e-300, max_levels=6)
    # no level resolves 1e-300, so the run starts at the cap's last pair
    assert counts == [_refined_count(64, 2, level) for level in (5, 6)]
    # from level 0, every count of the schedule is built
    counts.clear()
    monkeypatch.setattr(growthdist.linalg, "_first_level", lambda *args: 0)
    with pytest.raises(ConvergenceError, match="at level 6"):
        multipoint_prob_exact(P2, tol=1e-300, max_levels=6)
    assert counts == [64, 90, 128, 182, 256, 362, 512]
    # a tiny base still refines strictly, with even counts
    assert [_refined_count(2, 2, level) for level in range(6)] == [2, 4, 6, 8, 10, 12]
    # the default cap reaches the finest count of seven node doublings
    default = inspect.signature(multipoint_prob_exact).parameters["max_levels"].default
    assert _refined_count(64, 2, default) == 64 * 2 ** 7


@pytest.mark.parametrize(
    "corner, start, built, level, full_level",
    [
        (ModelParams(q=0.7261, m=(2, 5), n=(4, 5), a=(1, 3)), 5, [362, 512], 6, 5),
        (ModelParams(q=0.3564, m=(3, 5), n=(1, 2), a=(5, 8)), 2, [128, 182], 3, 3),
        (ModelParams(q=0.767, m=(2, 3, 4, 6), n=(1, 2, 4, 6), a=(1, 2, 3, 4)),
         7, [724, 1024], 8, 6),
    ],
    ids=["steps-down", "bound-rules-out", "four-points"],
)
def test_first_comparison_that_agrees(monkeypatch, corner, start, built, level, full_level):
    # Each run agrees on its first comparison and builds nothing below its
    # start.  With a threshold of 1 the coupling error is far below its
    # bound, so on the first and last corner levels below the start already
    # agree and the schedule from level 0 stops earlier, at a value within
    # tol of this run's.
    counts = []
    terms = growthdist.exact._terms

    def recording(asm, nn, **kwargs):
        counts.append(nn)
        return terms(asm, nn, **kwargs)

    asm = _Assembler(corner, 0.0, 1.0)
    ratio = asm.coupling_ratio(_pieces(asm)[1])
    assert _first_level(lambda lv: ratio ** _refined_count(64, 2, lv), 1e-9, 14) == start
    monkeypatch.setattr(growthdist.exact, "_terms", recording)
    res = multipoint_prob_exact(corner)
    assert counts == built
    assert (res.first_level, res.levels) == (start, level)
    assert res.value == pytest.approx(dp_exact_prob(corner), abs=1e-9)
    monkeypatch.setattr(growthdist.linalg, "_first_level", lambda *args: 0)
    full = multipoint_prob_exact(corner)
    assert full.levels == full_level
    assert abs(full.value - res.value) <= 1e-9


def test_uncertified_theta_rule_reports_its_tail(monkeypatch):
    # this corner's 8-node rule is refused; with no room to double, the run
    # stops on the first level it builds and names the tail
    monkeypatch.setattr(growthdist.linalg, "_THETA_MAX_NODES", 8)
    corner = ModelParams(q=0.4, m=(2, 4), n=(1, 3), a=(4, 7))
    with pytest.raises(ConvergenceError, match=r"within 8 nodes per circle \(last theta tail \d"):
        multipoint_prob_exact(corner)


@pytest.mark.parametrize("a", [(0,), (3,)], ids=["impossible", "possible"])
def test_refinement_controls_are_checked_before_the_impossible_event(a):
    # a threshold <= 0 returns 0 without refining, but not before its
    # refinement controls are checked
    params = ModelParams(q=0.5, m=(2,), n=(2,), a=a)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        multipoint_prob_exact(params, tol=math.nan)
    with pytest.raises(ValueError, match="max_levels must be non-negative"):
        multipoint_prob_exact(params, max_levels=-3)


def test_multipoint_control_errors():
    with pytest.raises(ValueError):
        multipoint_prob_exact(P2, theta_radius=0.9)
    with pytest.raises(ValueError, match="tol must be positive"):
        multipoint_prob_exact(P2, tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        multipoint_prob_exact(P2, tol=math.inf)
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
    table, chains = _pieces(asm)
    boundary = {block: [(part, poly) for part, poly in parts if part == "B"]
                for block, parts in table.items()}
    b = np.zeros((n_last, n_last), dtype=complex)
    for rows, cols, base, poly in _terms(asm, 64, pieces=(boundary, chains)):
        b[rows, cols] += _laurent_value(poly, th) * base
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
    packed = _pack(_terms(asm, 256))
    value, _, _ = _theta_integral(asm.N, packed, P2.p, radius, n_theta, None)
    ref, _, _ = _theta_integral(asm.N, packed, P2.p, 2.0, 96, None)
    assert abs(value - ref) < 5e-13
    assert value.real == pytest.approx(dp_exact_prob(P2), abs=1e-9)


# ---------------------------------------------------------------------------
# batched theta engine
# ---------------------------------------------------------------------------

def _laurent_value(poly, thetas) -> complex:
    """A Laurent polynomial ``{exponents: coefficient}`` evaluated at one point."""
    return sum(c * np.prod([th ** e for th, e in zip(thetas, alpha)]) for alpha, c in poly.items())


def _p3_level0():
    asm = _Assembler(P3, 0.0, 1.0)
    return asm, _pack(_terms(asm, 64))


def test_batched_theta_integral_matches_per_node_sum():
    # the engine batches the determinants on the whole torus and reads the
    # value from their FFT; the reference sums trapezoid weight * det_theta
    # node by node
    asm, packed = _p3_level0()
    n_theta, radius = 8, 2.0
    value, _, _ = _theta_integral(asm.N, packed, P3.p, radius, n_theta, None)
    ring = circle(0.0, radius, n_theta)
    w = ring.weights / (ring.nodes - 1.0) * (1.0 - ring.nodes ** (-(n_theta // 2)))
    ref = sum(
        w[i] * w[j] * det_theta(P3, (ring.nodes[i], ring.nodes[j]), nodes=64)
        for i in range(n_theta) for j in range(n_theta)
    )
    assert abs(value - ref) / abs(ref) < 1e-13


def test_batched_theta_integral_independent_of_chunk_size(monkeypatch):
    asm, packed = _p3_level0()
    batched, _, _ = _theta_integral(asm.N, packed, P3.p, 2.0, 8, None)
    monkeypatch.setattr(growthdist.linalg, "_DET_BATCH_BYTES", 1)  # one matrix per chunk
    single, _, _ = _theta_integral(asm.N, packed, P3.p, 2.0, 8, None)
    assert abs(single - batched) <= 1e-15


@pytest.mark.parametrize("size", [4, 1], ids=["side4", "side1"])
def test_packed_assembly_matches_direct_sum(monkeypatch, size):
    # 2560 bytes hold 10 matrices of side 4 or 160 of side 1, so the 1024
    # nodes take many chunks; the reference sums every term at every node
    rng = np.random.default_rng(7)
    ring = circle(0.0, 2.0, 32)
    thetas = tuple(np.meshgrid(ring.nodes, ring.nodes, indexing="ij"))
    every = slice(0, size)
    terms = [
        (every, every, 0.1 * rng.normal(size=(size, size)), {(j, k): 1.0})
        for j, k in ((1, 0), (0, -1), (-2, 1))
    ]
    monkeypatch.setattr(growthdist.linalg, "_DET_BATCH_BYTES", 2560)
    got = growthdist.linalg._dets(size, _pack(terms), thetas, None)
    mats = np.eye(size) + sum(
        (thetas[0] ** j * thetas[1] ** k)[..., None, None] * base
        for _, _, base, poly in terms for (j, k) in poly
    )
    ref = np.linalg.det(mats)
    assert got.shape == (32, 32)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_odd_node_counts_rejected(tmp_path):
    # the conjugate-pair walk needs even counts; an odd count would also
    # put a node on the branch cut of log w
    with pytest.raises(ValueError, match="even"):
        det_theta(P2, (1.3 + 0.4j,), nodes=63)
    with pytest.raises(ValueError, match="even"):
        multipoint_prob_exact(P2, base_nodes=63)
    config = tmp_path / "config.json"
    config.write_text('{"q": 0.4, "m": [1, 3], "n": [1, 2], "a": [2, 4]}', encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["exact", "--config", str(config), "--base-nodes", "63", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


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
