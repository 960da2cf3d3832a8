"""LU determinants, Nystrom grids and Nystrom determinants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from growthdist.linalg import block_grid, lu_det, nystrom_det


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

def test_nystrom_det_zero_kernel():
    grid = block_grid(1, 4.0, 32)
    assert nystrom_det(np.zeros((len(grid), len(grid))), grid) == pytest.approx(1.0)


def test_nystrom_det_rank_one_closed_form():
    # det(I + f x f) = 1 + int f^2 for the separable kernel f(u) f(v)
    grid = block_grid(1, 4.0, 32)
    f = np.exp(-grid.nodes)
    got = nystrom_det(np.outer(f, f), grid)
    want = 1.0 + (1.0 - math.exp(-8.0)) / 2.0
    assert got == pytest.approx(want, abs=1e-10)


def test_nystrom_node_doubling_converges():
    # smooth separable kernel: doubling the resolution moves the value
    # far less than the coarse-grid discretization error
    def det_at(n):
        grid = block_grid(1, 6.0, n)
        f = np.exp(-grid.nodes ** 2)
        return nystrom_det(np.outer(f, f), grid)

    want = 1.0 + math.sqrt(math.pi / 2.0) / 2.0 * math.erf(6.0 * math.sqrt(2.0))
    assert abs(det_at(48) - want) < 1e-8
    assert abs(det_at(96) - want) < 1e-10
