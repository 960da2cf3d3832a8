"""Weight sampling and the Monte Carlo estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from growthdist.growth import mc_multipoint, sample_weights
from growthdist.errors import SchemaError
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


def test_mc_agrees_with_transfer_matrix():
    params = ModelParams(q=0.6, m=(1, 2), n=(1, 3), a=(2, 4))
    truth = dp_exact_prob(params)
    res = mc_multipoint(params, 150_000, seed=4)
    assert abs(res.estimate - truth) < 5 * res.stderr


def test_mc_validates_sample_count():
    params = ModelParams(q=0.5, m=(1,), n=(1,), a=(1,))
    with pytest.raises(ValueError):
        mc_multipoint(params, 0)


# Success counts are part of the reproducibility contract: the chunk streams
# and the inverse transform must reproduce them exactly for any worker count.
SCALED = {"q": 0.25, "t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "config, nsamples, seed, successes",
    [
        ({**SCALED, "T": 40}, 16384, 99, 15752),
        ({**SCALED, "T": 10}, 20000, 5, 19234),
        ({"q": 0.4, "m": [1, 2], "n": [1, 3], "a": [2, 4]}, 40000, 7, 21293),
        ({"q": 0.6, "m": [3, 5], "n": [2, 4], "a": [3, 6]}, 30000, 11, 22),
    ],
    ids=["T40-seed99", "T10-seed5", "tiny-seed7", "tail-seed11"],
)
def test_mc_success_counts_are_pinned(config, nsamples, seed, successes, workers):
    params = parse_instance(config)
    if not isinstance(params, ModelParams):
        params = discretize(params)
    res = mc_multipoint(params, nsamples, seed=seed, workers=workers)
    assert res.successes == successes
