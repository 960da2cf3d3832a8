"""LU determinants, Nystrom grids, Nystrom determinants and the theta rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

import growthdist.linalg
from growthdist.asymptotic import LimitSettings, _LimitKernels, _limit_terms, multitime_cdf
from growthdist.errors import ConvergenceError
from growthdist.exact import _Assembler, _terms, multipoint_prob_exact
from growthdist.linalg import _dets, _pack, _ring, _theta_integral, block_grid, lu_det
from growthdist.params import LimitParams, ModelParams


def _random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_lu_det_basic_cases():
    assert lu_det(np.eye(4)) == pytest.approx(1.0)
    assert lu_det(np.diag([2.0, 3.0, -1.5])) == pytest.approx(-9.0)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(lu_det(singular)) < 1e-14


def test_lu_det_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        m = _random_complex(rng, n)
        assert lu_det(m) == pytest.approx(np.linalg.det(m), rel=1e-11)


def test_lu_det_multiplicative():
    rng = np.random.default_rng(7)
    a, b = _random_complex(rng, 6), _random_complex(rng, 6)
    prod = lu_det(a) * lu_det(b)
    assert abs(lu_det(a @ b) - prod) / abs(prod) < 1e-10


def test_lu_det_stack_matches_single_matrices():
    rng = np.random.default_rng(3)
    stack = np.stack([_random_complex(rng, 7) for _ in range(6)])
    dets = lu_det(stack)
    assert isinstance(dets, np.ndarray) and dets.shape == (6,)
    assert [complex(d) for d in dets] == [lu_det(m) for m in stack]
    assert np.array_equal(lu_det(stack.reshape(2, 3, 7, 7)), dets.reshape(2, 3))
    assert type(lu_det(stack[0])) is complex
    for bad in (np.ones(3), np.ones((3, 2, 4))):
        with pytest.raises(ValueError):
            lu_det(bad)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3])
def test_block_grid_layout(p):
    extent, n = 6.0, 24
    grid = block_grid(p, extent, n)
    assert grid.p == p
    assert len(grid.slices) == p
    assert len(grid) == len(grid.nodes) == len(grid.weights)
    for r in range(1, p + 1):
        blk = grid.nodes[grid.slices[r - 1]]
        if r < p:
            assert np.all((-extent < blk) & (blk < 0))
        else:
            assert np.all((0 < blk) & (blk < extent))
    assert np.all(grid.weights > 0)
    # each block integrates constants exactly over its interval
    for r in range(1, p + 1):
        total = grid.weights[grid.slices[r - 1]].sum()
        assert total == pytest.approx(extent, rel=1e-13)


# ---------------------------------------------------------------------------
# Fredholm determinants by quadrature
# ---------------------------------------------------------------------------

def _fredholm_det(kernel: np.ndarray, grid) -> complex:
    # det(I + W^(1/2) K W^(1/2)), the matrix the limit law and F_GUE factor
    sw = np.sqrt(grid.weights)
    return lu_det(np.eye(len(grid)) + sw[:, None] * kernel * sw[None, :])


def test_nystrom_det_zero_kernel():
    grid = block_grid(1, 4.0, 32)
    assert _fredholm_det(np.zeros((len(grid), len(grid))), grid) == pytest.approx(1.0)


def test_nystrom_det_rank_one_closed_form():
    # det(I + f x f) = 1 + int f^2 for the separable kernel f(u) f(v)
    grid = block_grid(1, 4.0, 32)
    f = np.exp(-grid.nodes)
    got = _fredholm_det(np.outer(f, f), grid)
    want = 1.0 + (1.0 - math.exp(-8.0)) / 2.0
    assert got == pytest.approx(want, abs=1e-10)


def test_nystrom_node_doubling_converges():
    # smooth separable kernel: doubling the resolution moves the value
    # far less than the coarse-grid discretization error
    def det_at(n):
        grid = block_grid(1, 6.0, n)
        f = np.exp(-grid.nodes ** 2)
        return _fredholm_det(np.outer(f, f), grid)

    want = 1.0 + math.sqrt(math.pi / 2.0) / 2.0 * math.erf(6.0 * math.sqrt(2.0))
    assert abs(det_at(48) - want) < 1e-8
    assert abs(det_at(96) - want) < 1e-10


# ---------------------------------------------------------------------------
# theta rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radius", [1.5, 3.0])
@pytest.mark.parametrize("n_theta", [8, 16])
@pytest.mark.parametrize("p", [2, 3])
def test_theta_rule_is_exact_on_a_laurent_polynomial(p, n_theta, radius):
    # with side-1 terms det(1 + sum_a c_a theta^a) is the polynomial itself,
    # so its integral is 1 plus every c_a whose degrees are all >= 0.  The
    # degrees fill the band [-n/2, n/2), the top corner and a degree-1 term
    # included, and each term has modulus 0.1 on the circle.  The
    # coefficients are real, as the rule's conjugate halves need.
    rng = np.random.default_rng(100 * p + n_theta)
    half = n_theta // 2
    degrees = {tuple(int(k) for k in rng.integers(-half, half, size=p - 1)) for _ in range(12)}
    degrees |= {(half - 1,) * (p - 1), (1,) + (0,) * (p - 2), (-half,) * (p - 1)}
    one = slice(0, 1)
    coefs = {
        alpha: 0.1 * rng.choice((-1.0, 1.0)) * radius ** -sum(alpha)
        for alpha in sorted(degrees)
    }
    terms = [(one, one, np.array([[c]]), {alpha: 1.0}) for alpha, c in coefs.items()]
    value, _, _ = _theta_integral(1, _pack(terms), p, radius, n_theta, None)
    exact = 1.0 + sum(c for alpha, c in coefs.items() if min(alpha) >= 0)
    assert abs(value - exact) < 1e-14


def test_pack_refuses_a_complex_base():
    # a complex base breaks det(I + F(conj theta)) = conj det(I + F(theta)),
    # on which the rule's conjugate halves rest
    one = slice(0, 1)
    with pytest.raises(ValueError, match="real"):
        _pack([(one, one, np.array([[0.1 + 1e-17j]]), {(1,): 1.0})])


def test_ring_nodes_nest_and_pair_by_conjugation():
    ring = _ring(2.0, 16)
    assert ring[0] == 2.0 and ring[8] == -2.0
    assert np.array_equal(ring[1:], ring[:0:-1].conj())
    assert np.array_equal(ring[::2], _ring(2.0, 8))
    assert np.allclose(ring, 2.0 * np.exp(2j * np.pi * np.arange(16) / 16), atol=1e-15)


def _counting(monkeypatch) -> list:
    counts = []
    det = growthdist.linalg.lu_det

    def counting(mats):
        counts.append(len(mats))
        return det(mats)

    monkeypatch.setattr(growthdist.linalg, "lu_det", counting)
    return counts


@pytest.mark.parametrize(
    "p, fresh8, doubled, fresh16", [(2, 5, 4, 9), (3, 34, 96, 130)], ids=["p2", "p3"],
)
def test_rule_computes_one_node_of_each_conjugate_pair(monkeypatch, p, fresh8, doubled, fresh16):
    # a rule computes one node of each pair j <-> -j mod n (the 2^(p-1)
    # real nodes pair with themselves), and a doubled rule only the nodes
    # with some odd index, which pair among themselves
    rng = np.random.default_rng(p)
    every = slice(0, 3)
    terms = [(every, every, 0.2 * rng.normal(size=(3, 3)), {alpha: 1.0})
             for alpha in [(1,) * (p - 1), (0,) * (p - 2) + (-1,), (2,) + (0,) * (p - 2)]]
    packed = _pack(terms)
    counts = _counting(monkeypatch)
    _, _, coarse = _theta_integral(3, packed, p, 2.0, 8, None)
    assert sum(counts) == fresh8
    counts.clear()
    value16, tail16, nested = _theta_integral(3, packed, p, 2.0, 16, None, coarse)
    assert sum(counts) == doubled
    counts.clear()
    ref16, ref_tail, full = _theta_integral(3, packed, p, 2.0, 16, None)
    assert sum(counts) == fresh16
    assert np.array_equal(nested[(slice(None, None, 2),) * (p - 1)], coarse)
    assert np.abs(nested - full).max() <= 1e-14 * np.abs(full).max()
    assert abs(value16 - ref16) <= 1e-14 and abs(tail16 - ref_tail) <= 1e-14


def _limit_anchor_level0():
    inst = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))
    settings = LimitSettings()
    grid = block_grid(inst.p, settings.extent, settings.block_nodes)
    (terms,) = _limit_terms(_LimitKernels(inst, settings), [grid])
    return len(grid), terms, inst.p


def _exact_p3_level0():
    params = ModelParams(q=0.4, m=(3, 6, 9), n=(2, 4, 6), a=(5, 9, 13))
    return params.n[-1], _terms(_Assembler(params, 0.0, 1.0), 64), params.p


@pytest.mark.parametrize("n_theta", [8, 16])
@pytest.mark.parametrize("level0", [_limit_anchor_level0, _exact_p3_level0],
                         ids=["limit-anchor", "exact-p3"])
def test_half_torus_rule_matches_the_full_torus(level0, n_theta):
    # every node computed, no conjugation, and the complex FFT read directly
    size, terms, p = level0()
    packed = _pack(terms)
    radius = 2.0
    ring = _ring(radius, n_theta)
    dets = _dets(size, packed, np.meshgrid(*[ring] * (p - 1), indexing="ij"), None)
    full = np.fft.fftn(dets)[(slice(0, n_theta // 2),) * (p - 1)]
    for _ in range(p - 1):
        full = full @ (radius ** -np.arange(n_theta // 2) / n_theta)
    value, _, _ = _theta_integral(size, packed, p, radius, n_theta, None)
    assert isinstance(value, float)
    assert abs(value - complex(full)) <= 1e-13


# ---------------------------------------------------------------------------
# the refinement loop
# ---------------------------------------------------------------------------

_ROUTES = {
    "exact": lambda: multipoint_prob_exact(ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, 4))),
    "asymptotic": lambda: multitime_cdf(
        LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))),
}


@pytest.mark.parametrize("value", [-20.5, 1.0 + 3e-6])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_value_outside_unit_interval_is_not_converged(monkeypatch, route, value):
    # two levels can agree on a value no probability takes when the kernel
    # bases lost their accuracy (close tilted times with the lines far out);
    # the engine refuses it on either route
    monkeypatch.setattr(growthdist.linalg, "_certified_integral", lambda *args: (value, 8, 0.0))
    with pytest.raises(ConvergenceError, match="not a probability"):
        _ROUTES[route]()
