"""Monte Carlo sampling of the corner growth model.

The last-passage recursion over independent geometric(q) weights
``P(w = k) = (1-q) q^k`` is

    G(m, n) = max{G(m-1, n), G(m, n-1)} + w(m, n),    G(m, 0) = G(0, n) = 0.

``mc_multipoint`` runs it row by row (``m = 1, 2, ...``) for a whole chunk
of samples at once.  The row state is sample-contiguous, shape
``(n_p, S)`` for ``S`` samples: each column step ``n`` is one vector
``max`` and one vector add over ``S`` contiguous integers.  A row's
uniforms are drawn sample-major into one preallocated buffer, turned into
weights in place by the inverse transform, and transposed into the row
layout in blocks of ``_COPY_BLOCK`` samples.

Sampling is reproducible and worker-count independent: the sample stream is
split into fixed-size chunks, chunk ``c`` of master seed ``s`` draws from a
counter-based Philox generator keyed by ``(s, c)``, and the per-chunk success
counts are summed as Python integers, which is exact in any order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .linalg import _check_deadline
from .params import ModelParams

__all__ = [
    "sample_weights",
    "mc_multipoint",
    "MCResult",
]

_CHUNK = 1 << 13
_COPY_BLOCK = 512  # samples per block of the row transpose (cache-sized strides)


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never collide."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_weights(q: float, shape, seed: int, stream: int = 0) -> np.ndarray:
    """Sample an array of geometric(q) weights with ``P(w = k) = (1-q) q^k``.

    Uses the inverse transform ``w = floor(ln(U) / ln(q))`` with
    ``U`` uniform on (0, 1].

    Parameters
    ----------
    q : float
        Weight parameter in (0, 1).
    shape : tuple of int
        Output array shape.
    seed, stream : int
        Master seed and stream index of the counter-based generator.
    """
    if not (0.0 < q < 1.0):
        raise SchemaError(f"q must lie in (0, 1), got {q!r}")
    gen = _generator(seed, stream)
    u = 1.0 - gen.random(size=shape)  # uniform on (0, 1]
    return np.floor(np.log(u) / math.log(q)).astype(np.int64)


# ---------------------------------------------------------------------------
# Monte Carlo estimate of the multi-point probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    """Monte Carlo estimate with its binomial standard error."""

    estimate: float
    stderr: float
    nsamples: int
    successes: int


def _chunk_successes(
    params: ModelParams, nsamples: int, seed: int, chunk: int, deadline: float | None
) -> int:
    """Count event successes in one sample chunk (vectorized over samples).

    Each row draws the chunk stream's next ``nsamples * n_p`` uniforms
    sample-major, as ``gen.random(size=(nsamples, n_p))`` would, and uses
    the inverse transform of :func:`sample_weights`.
    """
    _check_deadline(deadline, "Monte Carlo sampling")
    gen = _generator(seed, chunk)
    logq = math.log(params.q)
    mp, np_ = params.m[-1], params.n[-1]
    checkpoints = {m: k for k, m in enumerate(params.m)}
    u = np.empty((nsamples, np_))
    w = np.empty((np_, nsamples), dtype=np.int64)
    g = np.zeros((np_, nsamples), dtype=np.int64)
    alive = np.ones(nsamples, dtype=bool)
    for m in range(1, mp + 1):
        gen.random(out=u)
        np.subtract(1.0, u, out=u)  # uniform on (0, 1]
        np.log(u, out=u)
        u /= logq
        np.floor(u, out=u)
        for lo in range(0, nsamples, _COPY_BLOCK):
            hi = lo + _COPY_BLOCK
            np.copyto(w[:, lo:hi], u[lo:hi].T, casting="unsafe")
        g[0] += w[0]
        for j in range(1, np_):
            np.maximum(g[j], g[j - 1], out=g[j])
            g[j] += w[j]
        if m in checkpoints:
            k = checkpoints[m]
            alive &= g[params.n[k] - 1] < params.a[k]
    return int(alive.sum())


def mc_multipoint(
    params: ModelParams,
    nsamples: int,
    seed: int = 0,
    workers: int = 1,
    deadline: float | None = None,
) -> MCResult:
    """Monte Carlo estimate of ``P(G(m_k, n_k) < a_k for all k)``.

    The result is bit-identical for any ``workers`` value: chunk boundaries
    and per-chunk generator streams depend only on ``(seed, nsamples)``.
    ``deadline`` is a ``time.monotonic()`` stamp checked before every chunk;
    past it, ``BudgetError`` is raised.
    """
    if nsamples <= 0:
        raise ValueError("nsamples must be positive")
    sizes = []
    left = nsamples
    while left > 0:
        take = min(_CHUNK, left)
        sizes.append(take)
        left -= take

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(
                pool.map(
                    lambda ic: _chunk_successes(params, ic[1], seed, ic[0], deadline),
                    enumerate(sizes),
                )
            )
    else:
        counts = [
            _chunk_successes(params, sz, seed, c, deadline) for c, sz in enumerate(sizes)
        ]

    successes = sum(counts)
    est = successes / nsamples
    stderr = math.sqrt(max(est * (1.0 - est), 1.0 / nsamples) / nsamples)
    return MCResult(estimate=est, stderr=stderr, nsamples=nsamples, successes=successes)
