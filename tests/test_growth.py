"""Weight sampling and the Monte Carlo estimator."""

from __future__ import annotations

import math
import time
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growthdist.growth
from growthdist.growth import (
    _CHUNK,
    _cell_table,
    _generator,
    _height_type,
    _inverse_transform,
    mc_multipoint,
    sample_weights,
)
from growthdist.errors import BudgetError, SchemaError
from growthdist.exact import multipoint_prob_exact
from growthdist.oracle import dp_exact_prob
from growthdist.params import ModelParams, discretize, parse_instance


# ---------------------------------------------------------------------------
# geometric weights
# ---------------------------------------------------------------------------

def test_sample_weights_deterministic_and_stream_separated():
    a = sample_weights(0.5, (64, 3), seed=11, stream=0)
    b = sample_weights(0.5, (64, 3), seed=11, stream=0)
    c = sample_weights(0.5, (64, 3), seed=11, stream=1)
    d = sample_weights(0.5, (64, 3), seed=12, stream=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_weights_distribution():
    q = 0.5
    n = 400_000
    w = sample_weights(q, (n,), seed=3)
    assert w.dtype == np.int64 and w.min() >= 0
    mean, var = q / (1 - q), q / (1 - q) ** 2
    se = math.sqrt(var / n)
    assert abs(w.mean() - mean) < 4 * se
    # P(w = 0) = 1 - q, with a binomial error bar
    p0 = np.mean(w == 0)
    assert abs(p0 - (1 - q)) < 4 * math.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("q", [1e-20, 0.02, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1 - 1e-9])
def test_cell_table_matches_the_transform(q):
    # a determinate cell h must give the weight of every j = (h << 37) | l
    table = _cell_table(q, np.int64)
    # U <= 2**-16 is always a fix-up, even at q = 1e-20 where its weights are all 0
    assert table[-1] == -1
    cells = np.flatnonzero(table >= 0).astype(np.uint64)
    rng = np.random.default_rng(17)
    lows = (np.uint64(0), np.uint64(2**37 - 1), rng.integers(0, 2**37, cells.size, np.uint64))
    for low in lows:
        j = (cells << np.uint64(37)) | low
        weights = np.floor(_inverse_transform(j * 2.0**-53, math.log(q))).astype(np.int64)
        assert np.array_equal(weights, table[cells.astype(np.intp)])
    if q == 0.25:
        assert np.mean(table < 0) < 1e-3


def test_sample_weights_validates_q():
    with pytest.raises(SchemaError):
        sample_weights(1.0, (4,), seed=0)
    with pytest.raises(SchemaError):
        sample_weights(-0.1, (4,), seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo multipoint estimator
# ---------------------------------------------------------------------------

def test_mc_impossible_event_is_zero():
    params = ModelParams(q=0.5, m=(1,), n=(1,), a=(0,))
    res = mc_multipoint(params, 5000, seed=0)
    assert res.estimate == 0.0 and res.successes == 0


def test_mc_single_cell_matches_bernoulli():
    # P(G(1,1) < 1) = P(omega = 0) = 1 - q
    params = ModelParams(q=0.5, m=(1,), n=(1,), a=(1,))
    res = mc_multipoint(params, 200_000, seed=2)
    assert res.nsamples == 200_000
    assert abs(res.estimate - 0.5) < 4 * res.stderr
    assert res.stderr == pytest.approx(
        math.sqrt(res.estimate * (1 - res.estimate) / res.nsamples), rel=1e-6
    )


def test_mc_worker_count_does_not_change_the_stream():
    params = ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, 4))
    one = mc_multipoint(params, 40_000, seed=7, workers=1)
    three = mc_multipoint(params, 40_000, seed=7, workers=3)
    assert one.successes == three.successes
    assert one.estimate == three.estimate


def test_mc_pool_is_bounded_by_the_chunks(monkeypatch):
    # threads past the chunk count only hold buffers; a 2-chunk run asks for
    # at most 2 whatever --workers says, with the same counts
    asked = []
    pool = growthdist.growth.ThreadPoolExecutor

    class Recording(pool):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(growthdist.growth, "ThreadPoolExecutor", Recording)
    params = ModelParams(q=0.4, m=(1, 2), n=(1, 3), a=(2, 4))
    nsamples = _CHUNK + 1
    one = mc_multipoint(params, nsamples, seed=7, workers=1)
    many = mc_multipoint(params, nsamples, seed=7, workers=64)
    assert many.successes == one.successes
    assert all(n <= 2 for n in asked)


def test_mc_agrees_with_transfer_matrix():
    params = ModelParams(q=0.6, m=(1, 2), n=(1, 3), a=(2, 4))
    truth = dp_exact_prob(params)
    res = mc_multipoint(params, 150_000, seed=4)
    assert abs(res.estimate - truth) < 5 * res.stderr


def test_mc_budget_is_checked_every_row():
    # one 8,192-sample chunk of 300 rows takes seconds; a check before
    # each chunk alone would let it run to the end
    params = ModelParams(q=0.5, m=(300,), n=(300,), a=(10**5,))
    start = time.monotonic()
    with pytest.raises(BudgetError):
        mc_multipoint(params, _CHUNK, seed=0, deadline=start + 0.05)
    assert time.monotonic() - start < 2.0


def test_mc_validates_sample_count():
    params = ModelParams(q=0.5, m=(1,), n=(1,), a=(1,))
    with pytest.raises(ValueError):
        mc_multipoint(params, 0)


# Success counts are part of the reproducibility contract: the chunk streams
# and the inverse transform must reproduce them exactly for any worker count.
# Each pin must also lie within 5 binomial standard errors of an independent
# value (the exact formula on a scaled config, the DP on a discrete one), so
# that it cannot record a biased sampler.
SCALED = {"q": 0.25, "t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "config, nsamples, seed, successes",
    [
        ({**SCALED, "T": 40}, 16384, 99, 15708),
        ({**SCALED, "T": 10}, 20000, 5, 19245),
        ({"q": 0.4, "m": [1, 2], "n": [1, 3], "a": [2, 4]}, 40000, 7, 21320),
        ({"q": 0.6, "m": [3, 5], "n": [2, 4], "a": [3, 6]}, 30000, 11, 21),
    ],
    ids=["T40-seed99", "T10-seed5", "tiny-seed7", "tail-seed11"],
)
def test_mc_success_counts_are_pinned(config, nsamples, seed, successes, workers):
    params = parse_instance(config)
    if not isinstance(params, ModelParams):
        params = discretize(params)
    res = mc_multipoint(params, nsamples, seed=seed, workers=workers)
    assert res.successes == successes
    truth = multipoint_prob_exact(params).value if "T" in config else dp_exact_prob(params)
    assert abs(successes - nsamples * truth) <= 5 * math.sqrt(nsamples * truth * (1 - truth))


def _head(seed: int, stream: int) -> tuple[float, ...]:
    return tuple(_generator(seed, stream).random(4))


def test_generator_keys_give_distinct_streams():
    seeds = [0, 1, 2**63, 2**64 - 1]
    heads = {_head(s, c) for s in seeds for c in range(3)}
    assert len(heads) == len(seeds) * 3
    for a, b in [(0, 1), (1, 2), (5, 2**63), (2**32, 7)]:
        assert _head(a, b) != _head(b, a)
    # variable-width keys would pad (2**32, 0) to the words of (0, 1)
    assert _head(2**32, 0) != _head(0, 1)
    # keys are taken modulo 2**64
    assert _head(2**64 + 3, 1) == _head(3, 1)


# A plain reference for the stream contract.  Per chunk and row, the
# ``n_p * S`` weights of the row, column ``n`` of the grid for every sample
# and then column ``n + 1``, take their 16-bit cells ``h`` from the
# little-endian words of ``ceil(n_p * S / 4)`` raw outputs; then each fix-up
# cell, in that order, takes the top 37 bits of one more raw output as its
# low bits ``l``.  Every weight goes through the full transform of
# ``j = (h << 37) | l``; a determinate cell takes ``l`` from an unrelated
# generator, so the reference also checks the table's determinate entries.
def _reference_heights(params: ModelParams, nsamples: int, seed: int) -> np.ndarray:
    """Heights ``G(m_k, n_k)`` of every sample, shape ``(nsamples, p)``."""
    logq = math.log(params.q)
    fixup = _cell_table(params.q, np.int64) < 0
    unrelated = np.random.default_rng(2024)
    words = np.arange(4, dtype=np.uint64) * np.uint64(16)
    cols = params.n[-1]
    out = []
    for chunk, lo in enumerate(range(0, nsamples, _CHUNK)):
        size = min(_CHUNK, nsamples - lo)
        bits = _generator(seed, chunk).bit_generator
        g = np.zeros((size, cols + 1), dtype=np.int64)
        at = np.zeros((size, params.p), dtype=np.int64)
        for m in range(1, params.m[-1] + 1):
            raw = bits.random_raw(math.ceil(cols * size / 4))
            h = ((raw[:, None] >> words) & np.uint64(0xFFFF)).reshape(-1)[: cols * size]
            h = h.reshape(cols, size)
            low = unrelated.integers(0, 2**37, size=h.shape, dtype=np.uint64)
            fix = fixup[h.astype(np.intp)]
            low[fix] = bits.random_raw(int(fix.sum())) >> np.uint64(27)
            j = (h << np.uint64(37)) | low
            w = np.floor(np.log(1.0 - j * 2.0**-53) / logq).astype(np.int64)
            for n in range(1, cols + 1):
                g[:, n] = np.maximum(g[:, n], g[:, n - 1]) + w[n - 1]
            for k, mk in enumerate(params.m):
                if mk == m:
                    at[:, k] = g[:, params.n[k]]
        out.append(at)
    return np.concatenate(out)


@st.composite
def mc_cases(draw):
    """Weight parameter, corners and the quantiles the thresholds sit at."""
    p = draw(st.integers(1, 3))
    steps = st.lists(st.integers(1, 3), min_size=p, max_size=p)
    return (
        draw(st.floats(0.05, 0.95)),
        tuple(accumulate(draw(steps))),
        tuple(accumulate(draw(steps))),
        tuple(draw(st.lists(st.floats(0.1, 0.9), min_size=p, max_size=p))),
    )


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(case=mc_cases())
@example(case=(1 - 1e-9, (2, 4, 6), (1, 3, 5), (0.3, 0.5, 0.8)))  # int64 heights, all fix-ups
@example(case=(0.999, (2, 4), (3, 9), (0.4, 0.7)))  # 8% fix-ups; 9 columns span two gathers
@example(case=(0.5, (3,), (2,), (0.5,)))
@pytest.mark.parametrize("nsamples", [1, 511, 513, _CHUNK + 37])
def test_mc_matches_the_reference_recursion(case, nsamples):
    q, m, n, quantiles = case
    seed = 3
    heights = _reference_heights(ModelParams(q=q, m=m, n=n, a=(0,) * len(m)), nsamples, seed)
    a = tuple(int(np.quantile(heights[:, k], f)) + 1 for k, f in enumerate(quantiles))
    expected = int(np.all(heights < np.array(a), axis=1).sum())
    params = ModelParams(q=q, m=m, n=n, a=a)
    for workers in (1, 2):
        assert mc_multipoint(params, nsamples, seed=seed, workers=workers).successes == expected


@pytest.mark.parametrize(
    "q, corner, height",
    [
        (0.1, 3, np.int8),  # wmax = 15, bound 5 * 16
        (0.25, 80, np.int16),  # the T = 40 scaled instance: wmax = 26
        (0.95, 80, np.int32),
        (1 - 1e-9, 6, np.int64),
        (0.9999999999999999, 13, np.int64),
    ],
)
def test_heights_take_the_narrowest_type_that_holds_them(q, corner, height):
    params = ModelParams(q=q, m=(corner,), n=(corner,), a=(1,))
    assert _height_type(params) is height


@pytest.mark.parametrize("corner", [200, 300])
def test_heights_past_int64_are_refused(corner):
    # at this q one weight can reach 3.3e17; unchecked, int64 heights wrap
    # and the estimate reads 0.0 at 200 but 1.0 at 300
    params = ModelParams(q=0.9999999999999999, m=(corner,), n=(corner,), a=(2**62,))
    with pytest.raises(SchemaError, match=r"\(m_p \+ n_p - 1\) \* \(wmax \+ 1\).*int64"):
        mc_multipoint(params, 100, seed=0)
