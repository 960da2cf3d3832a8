"""Monte Carlo sampling of the corner growth model.

The last-passage recursion over independent geometric(q) weights
``P(w = k) = (1-q) q^k`` is

    G(m, n) = max{G(m-1, n), G(m, n-1)} + w(m, n),    G(m, 0) = G(0, n) = 0.

``mc_multipoint`` runs it row by row (``m = 1, 2, ...``) for a whole chunk
of samples at once.  The row state is sample-contiguous, shape
``(n_p, S)`` for ``S`` samples: each column step ``n`` is one vector
``max`` and one vector add over ``S`` contiguous integers.  A row's
weights are drawn straight into that layout, in C order.

A weight is ``floor(ln(1 - j * 2**-53) / ln q)`` for a uniform 53-bit
``j``, the inverse transform of ``Generator.random()``, evaluated lazily
in two stages (see :func:`_draw_weights`).  Stage 1 draws only the top 16
bits of ``j``, the cell ``h``, four cells to a raw 64-bit output read as
little-endian words, so the stream does not depend on the platform's
byte order.  A 65,536-entry table (:func:`_cell_table`) gives the weight
of every cell on which it is one number, which at q = 0.25 is all but
2.4e-4 of them.  Stage 2 draws the low 37 bits of ``j`` from one more raw
output only at the other, fix-up, cells and applies the float64
transform there.  So the law is that of the one-logarithm-per-weight
sampler bit for bit, at a quarter of a raw output and one table lookup
per weight.  As q nears 1 the boundaries ``q^k`` crowd the cells and the
fix-up share grows (7.9e-2 at q = 0.999, all cells at 1 - 1e-9).

Weights and heights use the narrowest signed integer type that holds the
largest height the stream can produce, ``(m_p + n_p - 1)(wmax + 1)``,
where ``wmax`` is the weight of the smallest ``1 - u``, 2**-53; the
two-stage draw keeps that 2**-53 grid, so ``wmax`` is as before.  That is
int16 for the q = 0.25, T = 40 scaled instance.  An instance whose bound
exceeds int64 is refused with ``SchemaError`` before anything is sampled,
since its heights would wrap around.

Sampling is reproducible and worker-count independent: the sample stream is
split into fixed-size chunks, chunk ``c`` of master seed ``s`` draws from its
own PCG64DXSM generator, seeded through ``SeedSequence`` by the key
``(s, c)`` (see :func:`_generator`), and the per-chunk success counts are
summed as Python integers, which is exact in any order.  Earlier versions
drew one ``Generator.random()`` per weight, and before that from Philox4x64,
so counts for a given seed differ from theirs.  On a 2-core x86-64 host
with numpy 2.4, 16,384 samples of the T = 40 scaled instance (105M
weights) take about 0.3 s, against 0.8 s with one logarithm per weight.
"""

from __future__ import annotations

import math
import os
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
_LOW_BITS = 37  # a weight's 53-bit uniform index j is (cell << 37) | low
_GATHER = 1 << 16  # cells per table gather, a multiple of the 4 cells of a raw output
_FIXUP = -1  # table entry of a cell on which the weight depends on the low bits
_MARGIN = 1e-9  # relative margin to the boundaries q**k, far above log's rounding


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64DXSM generator keyed by ``(seed, stream)``, each taken modulo 2**64.

    The key is handed to ``SeedSequence`` as four fixed-width 32-bit words,
    low word first.  ``SeedSequence([seed, stream])`` would split each number
    into as few words as hold it and pad the pool with zeros, so seed 2**32
    at stream 0 would replay seed 0 at stream 1; fixed-width words make
    distinct keys, a key and its swap included, give distinct streams.
    """
    words = [(k >> shift) & 0xFFFFFFFF for k in (seed, stream) for shift in (0, 32)]
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(entropy)))


def _inverse_transform(u: np.ndarray, logq: float) -> np.ndarray:
    """Turn uniforms ``u`` on [0, 1) in place into ``ln(1 - u) / ln q``.

    The result is >= 0, so a truncating cast to an integer type takes
    its floor: the geometric weight ``floor(ln(U) / ln q)``, ``U = 1 - u``.
    """
    np.subtract(1.0, u, out=u)  # uniform on (0, 1]
    np.log(u, out=u)
    u /= logq
    return u


def _cell_table(q: float, dtype: type) -> np.ndarray:
    """The weight of each 16-bit cell ``h``, or ``_FIXUP`` where it is not one number.

    Cell ``h`` holds the uniforms ``u = j * 2**-53`` with ``j >> 37 == h``.
    The weight :func:`_inverse_transform` gives is monotone in ``j``, so
    it is constant on the cell when both ends, widened by the relative
    ``_MARGIN``, floor to the same integer; the entry is then that weight.
    Every other cell, and always the last one (``U <= 2**-16``), is a
    fix-up whose weight needs the low 37 bits of ``j``.
    """
    logq = math.log(q)
    cells = np.arange(1 << 16, dtype=np.uint64) << np.uint64(_LOW_BITS)
    low = np.floor(_inverse_transform(cells * 2.0**-53, logq) * (1.0 - _MARGIN))
    ends = cells | np.uint64((1 << _LOW_BITS) - 1)
    high = np.floor(_inverse_transform(ends * 2.0**-53, logq) * (1.0 + _MARGIN))
    fixed = low == high
    fixed[-1] = False
    return np.where(fixed, low, _FIXUP).astype(dtype)


def _draw_weights(bits: np.random.BitGenerator, table: np.ndarray, logq: float,
                  out: np.ndarray) -> None:
    """Fill the C-contiguous ``out`` with weights, in C order, in two stages.

    Stage 1 draws ``ceil(out.size / 4)`` raw outputs of ``bits`` and reads
    each as four little-endian 16-bit cells, one per weight; ``table``
    (from :func:`_cell_table`) gives the weight of each cell, gathered
    ``_GATHER`` cells at a time.  Stage 2 then draws one more raw output
    for each fix-up cell, in C order, takes its top 37 bits as the low
    bits ``l`` of ``j = (h << 37) | l`` and sets the weight from
    ``j * 2**-53`` by :func:`_inverse_transform`.  Either way the weight
    is the floor of ``ln(1 - j * 2**-53) / ln q`` for a uniform 53-bit
    ``j``, as for ``Generator.random()``.
    """
    flat = out.reshape(-1)
    fixups = []
    for lo in range(0, flat.size, _GATHER):
        block = flat[lo:lo + _GATHER]
        raw = bits.random_raw(-(-block.size // 4)).astype("<u8", copy=False)
        h = raw.view("<u2")[: block.size]
        np.take(table, h, out=block, mode="clip")
        at = np.flatnonzero(block == _FIXUP)
        if at.size:
            fixups.append((block, at, h[at]))
    # fix-ups go block by block: near q = 1 they are most of the row, and
    # row-sized temporaries, paged in afresh for every row, ran q = 0.9999
    # 1.8x slower
    for block, at, h in fixups:
        j = h.astype(np.uint64)
        j <<= np.uint64(_LOW_BITS)
        j |= bits.random_raw(at.size) >> np.uint64(64 - _LOW_BITS)
        block[at] = _inverse_transform(j * 2.0**-53, logq)  # assignment truncates, as a cast


def sample_weights(q: float, shape, seed: int, stream: int = 0) -> np.ndarray:
    """Sample an array of geometric(q) weights with ``P(w = k) = (1-q) q^k``.

    Each weight is ``floor(ln(U) / ln(q))`` with ``U = 1 - j * 2**-53`` for
    a uniform 53-bit ``j``, drawn in two stages by :func:`_draw_weights`:
    a 16-bit cell first, and the low 37 bits only where the cell does not
    fix the weight.  For a given seed the draws differ from earlier
    versions, which took one ``Generator.random()`` per weight.

    Parameters
    ----------
    q : float
        Weight parameter in (0, 1).
    shape : tuple of int
        Output array shape, filled in C order.
    seed, stream : int
        Master seed and stream index: the bits come from the PCG64DXSM
        generator keyed by ``(seed, stream)`` (see :func:`_generator`).
    """
    if not (0.0 < q < 1.0):
        raise SchemaError(f"q must lie in (0, 1), got {q!r}")
    out = np.empty(shape, dtype=np.int64)
    _draw_weights(_generator(seed, stream).bit_generator, _cell_table(q, np.int64),
                  math.log(q), out)
    return out


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


def _height_type(params: ModelParams) -> type:
    """The narrowest signed integer type that holds every height of ``params``.

    The largest weight the stream can give, ``wmax``, is the transform of
    its smallest ``1 - u``, which is 2**-53; a height sums at most
    ``m_p + n_p - 1`` weights, so it is below ``(m_p + n_p - 1)(wmax + 1)``.
    Raises ``SchemaError`` when not even int64 holds that bound.
    """
    wmax = int(_inverse_transform(np.array([1.0 - 2.0**-53]), math.log(params.q))[0])
    bound = (params.m[-1] + params.n[-1] - 1) * (wmax + 1)
    for height in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(height).max:
            return height
    raise SchemaError(
        f"Monte Carlo heights can reach {bound} = (m_p + n_p - 1) * (wmax + 1) with "
        f"wmax = {wmax} at q = {params.q!r}, more than int64 holds"
    )


def _chunk_successes(
    params: ModelParams,
    nsamples: int,
    seed: int,
    chunk: int,
    deadline: float | None,
    table: np.ndarray,
) -> int:
    """Count event successes in one sample chunk (vectorized over samples).

    Each row checks ``deadline``, then fills its ``(n_p, nsamples)``
    weights in C order from the chunk stream by :func:`_draw_weights`:
    column ``n`` of the grid for every sample, then column ``n + 1``.
    Weights and heights have the integer type of ``table``, the
    :func:`_height_type` of ``params``.
    """
    bits = _generator(seed, chunk).bit_generator
    logq = math.log(params.q)
    mp, np_ = params.m[-1], params.n[-1]
    checkpoints = {m: k for k, m in enumerate(params.m)}
    w = np.empty((np_, nsamples), dtype=table.dtype)
    g = np.zeros((np_, nsamples), dtype=table.dtype)
    alive = np.ones(nsamples, dtype=bool)
    for m in range(1, mp + 1):
        _check_deadline(deadline, "Monte Carlo sampling")
        _draw_weights(bits, table, logq, w)
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
    The pool has at most as many threads as there are chunks and usable
    cores, since each thread holds its own chunk buffers.
    ``deadline`` is a ``time.monotonic()`` stamp checked before every row
    of every chunk; past it, ``BudgetError`` is raised.  ``SchemaError`` is
    raised before any sampling when no integer type up to int64 holds the
    heights (see :func:`_height_type`).
    """
    if nsamples <= 0:
        raise ValueError("nsamples must be positive")
    table = _cell_table(params.q, _height_type(params))
    starts = range(0, nsamples, _CHUNK)

    def count(chunk: int) -> int:
        size = min(_CHUNK, nsamples - starts[chunk])
        return _chunk_successes(params, size, seed, chunk, deadline, table)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(workers, len(starts), cores or 1)
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            counts = list(pool.map(count, range(len(starts))))
    else:  # a one-thread pool ran the T=40 scaled config 3-7% slower (2-core host)
        counts = [count(c) for c in range(len(starts))]

    successes = sum(counts)
    est = successes / nsamples
    stderr = math.sqrt(max(est * (1.0 - est), 1.0 / nsamples) / nsamples)
    return MCResult(estimate=est, stderr=stderr, nsamples=nsamples, successes=successes)
