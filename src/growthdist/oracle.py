"""Independent slow-but-sure evaluations of the multi-point probability.

Two routes are provided, both independent of any contour integration:

* ``dp_exact_prob`` — a transfer-matrix dynamic program over the Markov
  chain of last-passage columns ``(G(m,1), ..., G(m,N))``, with values
  capped at the final threshold (exact: by monotonicity any value reaching
  ``a_p`` already violates the final constraint, so the cap introduces no
  truncation error).  The states are the rows of an integer array with a
  mass vector beside it; each step expands all of them at once and merges
  the transitions that meet by an exact integer key.

* ``truncated_sum_prob`` — the determinantal sum

      Pr = sum over x^1..x^{p-1} in W_N with x^r_{n_r} < a_r of
           det[D^(n_1-i) w_{m_1}(x^1_j)]
           * prod_{r=2}^{p-1} det[D^(dn_r) w_{dm_r}(x^r_j - x^{r-1}_i)]
           * det[D^(j-1-n_{p-1}) w_{dm_p}(a_p - x^{p-1}_i)],

  where ``D`` is the forward difference ``Df(x) = f(x+1) - f(x)`` (inverse:
  prefix sums), ``w_m(x) = binom(x+m-1, x)(1-q)^m q^x 1{x >= 0}`` the
  negative-binomial weight, ``dn_r = n_r - n_{r-1}``, ``dm_r = m_r - m_{r-1}``
  and ``W_N`` the set of nondecreasing integer N-vectors.  The support of
  the difference kernels bounds every summation variable on both sides, so
  the enumeration window below makes the sum exact.

The building blocks — the weight ``w_m`` and integer powers of ``D`` — are
exported for direct testing, together with a numeric check of the
summation-by-parts identities that justify the determinantal sum.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetError
from .linalg import _check_deadline
from .params import ModelParams

__all__ = [
    "w_weight",
    "nabla_w",
    "nabla_w_table",
    "nabla_pow",
    "dp_exact_prob",
    "truncated_sum_prob",
    "verify_sbp",
]


# ---------------------------------------------------------------------------
# negative binomial weight and difference calculus
# ---------------------------------------------------------------------------

def w_weight(x: int, m: int, q: float) -> float:
    """Negative-binomial weight ``w_m(x) = binom(x+m-1, x)(1-q)^m q^x``, x >= 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if x < 0:
        return 0.0
    return math.comb(x + m - 1, x) * (1.0 - q) ** m * q ** x


def nabla_pow(f: Mapping[int, float], k: int) -> Callable[[int], float]:
    """Integer power of the forward difference on a finitely supported ``f``.

    Returns a callable evaluating ``D^k f`` anywhere.  For ``k < 0`` the
    iterated strict prefix sum is used, which requires (and here trivially
    has) a left support bound:

        D^(-r) f(x) = sum_{y < x} binom(x-y-1, r-1) f(y),

    the binomial counting the strict chains ``y < z_1 < ... < z_(r-1) < x``.
    """
    support = sorted(f)

    if k >= 0:
        coeff = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]

        def fwd(x: int) -> float:
            return sum(c * f.get(x + i, 0.0) for i, c in enumerate(coeff))

        return fwd

    r = -k

    def inv(x: int) -> float:
        out = 0.0
        for y in support:
            if y < x:
                out += math.comb(x - y - 1, r - 1) * f[y]
        return out

    return inv


def nabla_w(k: int, m: int, q: float, x: int) -> float:
    """``D^k w_m`` evaluated at a single integer ``x``."""
    if k >= 0:
        return sum(
            (-1) ** (k - i) * math.comb(k, i) * w_weight(x + i, m, q)
            for i in range(k + 1)
        )
    r = -k
    return sum(
        math.comb(x - y - 1, r - 1) * w_weight(y, m, q)
        for y in range(0, x)
    )


def nabla_w_table(k: int, m: int, q: float, lo: int, hi: int) -> np.ndarray:
    """``D^k w_m`` on the window ``lo..hi`` (inclusive) as an array."""
    if k >= 0:
        base_lo = min(lo, 0)
        xs = np.arange(base_lo, hi + k + 1)
        vals = np.array([w_weight(int(x), m, q) for x in xs])
        for _ in range(k):
            vals = vals[1:] - vals[:-1]
        return vals[lo - base_lo:]
    return np.array([nabla_w(k, m, q, int(x)) for x in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# exact dynamic program
# ---------------------------------------------------------------------------

_DP_ROWS = 1 << 20  # transitions expanded at once by one DP step


def _row_keys(cols: np.ndarray, radix: int) -> np.ndarray:
    """Integer keys of the rows of ``cols`` (entries in ``[0, radix)``).

    Equal rows get equal keys and distinct rows distinct keys.  The key is
    mixed-radix in ``radix``; whenever the next column would overflow
    int64, the keys so far are first replaced by their dense ranks, which
    keeps the keys exact for any row length.
    """
    key = np.zeros(len(cols), dtype=np.int64)
    bound = 1  # keys lie in [0, bound)
    for col in cols.T:
        if bound > 2 ** 63 // radix:
            ranks, key = np.unique(key, return_inverse=True)
            bound = len(ranks)
        key = key * radix + col
        bound *= radix
    return key


def _dp_step(
    states: np.ndarray, mass: np.ndarray, j: int, cap: int, geo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance column ``j`` of every state by one geometric increment.

    State ``s`` moves to ``s`` with ``s[j] = v`` for every
    ``v in [base, cap)``, ``base = max(s[j], s[j-1])``, with weight
    ``geo[v - base]``; mass reaching ``cap`` is dropped.  Two transitions
    land on the same state exactly when their parents agree off column
    ``j`` and their values agree, so the parents are grouped by their
    exact key off column ``j`` (``np.unique``), and the transitions are
    summed into a dense ``(group, v)`` table with ``np.bincount``, in slices
    of at most ``_DP_ROWS`` transitions.  The new states are the reachable
    cells, in ``(group, v)`` order.
    """
    base = states[:, j] if j == 0 else np.maximum(states[:, j], states[:, j - 1])
    _, group = np.unique(_row_keys(np.delete(states, j, axis=1), cap), return_inverse=True)
    groups = int(group.max()) + 1
    table = np.zeros(groups * cap)
    step = max(1, _DP_ROWS // cap)
    for lo in range(0, len(states), step):
        counts = cap - base[lo:lo + step]
        par = np.repeat(np.arange(lo, lo + len(counts)), counts)
        off = np.arange(len(par)) - np.repeat(np.cumsum(counts) - counts, counts)
        cell = group[par] * cap + base[par] + off
        table += np.bincount(cell, weights=mass[par] * geo[off], minlength=len(table))
    lowest = np.full(groups, cap)
    np.minimum.at(lowest, group, base)
    cells = np.flatnonzero(np.arange(cap)[None, :] >= lowest[:, None])
    parent = np.empty(groups, dtype=np.intp)
    parent[group] = np.arange(len(states))
    out = states[parent[cells // cap]]
    out[:, j] = cells % cap
    return out, table[cells]


def _dp_peak_states(params: ModelParams) -> int:
    """Most states ``dp_exact_prob`` holds at once (0 when it needs none).

    Halfway through a row, ``j`` columns hold new values and ``N - j`` old
    ones, each part a nondecreasing vector in ``[0, cap)``, so the state
    count is ``C(cap - 1 + j, j) * C(cap - 1 + N - j, N - j)``, with
    ``N = min(m_p, n_p)`` and ``cap = a_p``; the peak is its maximum over
    ``j``.
    """
    if any(ak <= 0 for ak in params.a):
        return 0
    N, cap = min(params.m[-1], params.n[-1]), params.a[-1]
    return max(
        math.comb(cap - 1 + j, j) * math.comb(cap - 1 + N - j, N - j) for j in range(N + 1)
    )


def dp_exact_prob(
    params: ModelParams, state_budget: int = 10 ** 6, deadline: float | None = None
) -> float:
    """Exact ``P(G(m_k, n_k) < a_k for all k)`` by transfer-matrix DP.

    The state is the vector ``(G(m,1), ..., G(m,N))`` with ``N = n_p``,
    evolved column by column; within a column the rows are swept in order,
    so intermediate states mix new and old entries.  The states are the
    rows of a ``(K, N)`` integer array with a mass vector beside it; each
    step expands every state over its admissible values at once and merges
    duplicates (see ``_dp_step``).  Values are capped at ``a_p``: mass
    reaching the cap is dropped (it can never satisfy the final
    constraint).  The grid is transposed when that gives the smaller state
    vector.

    Raises ``BudgetError`` when the peak state count (``_dp_peak_states``)
    exceeds the budget, before anything is allocated, and when ``deadline`` (a
    ``time.monotonic()`` stamp, checked before every row) has passed.
    """
    if any(ak <= 0 for ak in params.a):
        return 0.0
    if params.m[-1] < params.n[-1]:
        params = ModelParams(q=params.q, m=params.n, n=params.m, a=params.a)
    N = params.n[-1]
    cap = params.a[-1]
    peak = _dp_peak_states(params)
    if peak > state_budget:
        raise BudgetError(f"peak state count {peak} exceeds budget {state_budget}")
    q = params.q
    checkpoints = {m: k for k, m in enumerate(params.m)}
    # geometric increment probabilities; the tail q**cap beyond is dropped
    geo = (1.0 - q) * q ** np.arange(cap, dtype=float)

    states = np.zeros((1, N), dtype=np.int64)
    mass = np.ones(1)
    for m in range(1, params.m[-1] + 1):
        _check_deadline(deadline, "the transfer-matrix DP")
        for j in range(N):
            states, mass = _dp_step(states, mass, j, cap, geo)
        if m in checkpoints:
            k = checkpoints[m]
            keep = states[:, params.n[k] - 1] < params.a[k]
            states, mass = states[keep], mass[keep]
            if not len(states):
                return 0.0
    return float(mass.sum())


# ---------------------------------------------------------------------------
# determinantal sum
# ---------------------------------------------------------------------------

def _enumerate_vectors(N: int, lo: int, hi: int, bound_pos: int, bound_val: int
                       ) -> np.ndarray:
    """Nondecreasing integer N-vectors in [lo, hi] with x[bound_pos] < bound_val."""
    out = [
        v for v in combinations_with_replacement(range(lo, hi + 1), N)
        if v[bound_pos] < bound_val
    ]
    return np.array(out, dtype=np.int64).reshape(len(out), N)


def truncated_sum_prob(
    params: ModelParams, margin: int = 0, budget: int = 5 * 10 ** 7
) -> float:
    """Evaluate the determinantal sum for ``P(G(m_k,n_k) < a_k for all k)``.

    The enumeration windows are derived from the supports of the difference
    kernels, which make the sum exact; ``margin`` widens them anyway (the
    result must not change — a useful self-test).  ``budget`` caps the
    number of determinant evaluations.
    """
    if any(ak <= 0 for ak in params.a):
        return 0.0
    p = params.p
    N = params.n[-1]
    q = params.q
    n, m, a = params.n, params.m, params.a

    if p == 1:
        mat = np.empty((N, N))
        for i in range(N):
            for j in range(N):
                mat[i, j] = nabla_w(j - i - 1, m[0], q, a[0])
        return float(np.linalg.det(mat))

    dn = [n[0]] + [n[r] - n[r - 1] for r in range(1, p)]
    dm = [m[0]] + [m[r] - m[r - 1] for r in range(1, p)]

    # support-derived windows: low side from D^k w vanishing below -max(k,0),
    # high side recursively from the final determinant's row support
    hi = [0] * p
    hi[p - 1] = a[p - 1] + dn[p - 1] - 1 + margin
    for r in range(p - 2, 0, -1):
        hi[r] = hi[r + 1] + dn[r] + margin
    lo_base = -sum(dn[:p]) - margin

    vec_sets = []
    for r in range(1, p):
        vs = _enumerate_vectors(N, lo_base, hi[r], n[r - 1] - 1, a[r - 1])
        if len(vs) == 0:
            return 0.0
        vec_sets.append(vs)
    if math.prod(len(v) for v in vec_sets) > budget:
        raise BudgetError("enumeration window exceeds determinant budget")

    # first factor: det[D^(n_1 - i) w_{m_1}(x^1_j)]
    X1 = vec_sets[0]
    lo_t, hi_t = lo_base - N, max(hi) + N + 1
    first_tabs = [
        nabla_w_table(n[0] - (i + 1), m[0], q, lo_t, hi_t) for i in range(N)
    ]
    mats = np.empty((len(X1), N, N))
    for i in range(N):
        mats[:, i, :] = first_tabs[i][X1 - lo_t]
    weight = np.linalg.det(mats)  # indexed by x^1

    # middle factors: det[D^(dn_r) w_{dm_r}(x^r_j - x^{r-1}_i)], r = 2..p-1
    for r in range(2, p):
        Xp, Xn = vec_sets[r - 2], vec_sets[r - 1]
        dlo, dhi = lo_base - hi[r - 1] - 1, hi[r] - lo_base + 1
        tab = nabla_w_table(dn[r - 1], dm[r - 1], q, dlo, dhi)
        new_weight = np.zeros(len(Xn))
        chunk = max(1, budget // (len(Xn) * N * N + 1))
        for start in range(0, len(Xp), chunk):
            sl = slice(start, min(start + chunk, len(Xp)))
            diffs = Xn[None, :, None, :] - Xp[sl, None, :, None]
            dets = np.linalg.det(tab[diffs - dlo])
            new_weight += weight[sl] @ dets
        weight = new_weight

    # last factor: det[D^(j-1-n_{p-1}) w_{dm_p}(a_p - x^{p-1}_i)]
    Xl = vec_sets[p - 2]
    last_tabs = [
        nabla_w_table(j - 1 - n[p - 2], dm[p - 1], q, lo_t, hi_t)
        for j in range(1, N + 1)
    ]
    mats = np.empty((len(Xl), N, N))
    for j in range(N):
        mats[:, :, j] = last_tabs[j][(a[p - 1] - Xl) - lo_t]
    return float(weight @ np.linalg.det(mats))


# ---------------------------------------------------------------------------
# summation-by-parts spot checks
# ---------------------------------------------------------------------------

def _det_from_entries(entry, N: int) -> float:
    mat = np.array([[entry(i + 1, j + 1) for j in range(N)] for i in range(N)])
    return float(np.linalg.det(mat))


def _enum_wn(N: int, lo: int, hi: int):
    return combinations_with_replacement(range(lo, hi + 1), N)


def verify_sbp(seed: int = 0, trials: int = 4) -> float:
    """Numerically check the two summation-by-parts identities.

    Random small instances (N <= 3, finitely supported ``f, g``) of

    (a)  sum_{x in W_N, x_k < A} det[D^(j-a_i) f(x_j-y_i)] det[D^(b_j-i) g(z_j-x_i)]
         = same with exponents (k-a_i) and (b_j-k), and

    (b)  sum_{z in W_N, z_N < A} det[D^(j-a_i) g(z_j-x_i)]
         = det[D^(j-1-a_i) g(A-x_i)]

    are evaluated on windows wide enough that all neglected terms vanish
    identically.  Returns the maximum absolute discrepancy found.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        N = int(rng.integers(2, 4))
        g = {int(s): float(v) for s, v in
             zip(range(0, 3), rng.uniform(0.2, 1.0, size=3))}
        f = {int(s): float(v) for s, v in
             zip(range(0, 3), rng.uniform(0.2, 1.0, size=3))}
        a_vec = [int(v) for v in rng.integers(-1, 3, size=N)]
        b_vec = [int(v) for v in rng.integers(-1, 3, size=N)]
        x_vec = sorted(int(v) for v in rng.integers(-2, 3, size=N))
        y_vec = sorted(int(v) for v in rng.integers(-2, 3, size=N))
        z_vec = sorted(int(v) for v in rng.integers(2, 7, size=N))
        A = int(rng.integers(2, 5))

        g_ops = {k: nabla_pow(g, k) for k in range(-6, N + 7)}
        f_ops = {k: nabla_pow(f, k) for k in range(-6, N + 7)}

        # identity (b)
        lo = min(x_vec) - 8
        lhs = 0.0
        for z in _enum_wn(N, lo, A - 1):
            lhs += _det_from_entries(
                lambda i, j: g_ops[j - a_vec[i - 1]](z[j - 1] - x_vec[i - 1]), N
            )
        rhs = _det_from_entries(
            lambda i, j: g_ops[j - 1 - a_vec[i - 1]](A - x_vec[i - 1]), N
        )
        worst = max(worst, abs(lhs - rhs))

        # identity (a)
        k = int(rng.integers(1, N + 1))
        lo_x = min(min(y_vec), min(x_vec)) - 8
        hi_x = max(z_vec) + 8

        def sbpa_side(expf, expg) -> float:
            total = 0.0
            for x in _enum_wn(N, lo_x, hi_x):
                if not x[k - 1] < A:
                    continue
                df = _det_from_entries(
                    lambda i, j: f_ops[expf(i, j)](x[j - 1] - y_vec[i - 1]), N
                )
                if df == 0.0:
                    continue
                dg = _det_from_entries(
                    lambda i, j: g_ops[expg(i, j)](z_vec[j - 1] - x[i - 1]), N
                )
                total += df * dg
            return total

        lhs = sbpa_side(lambda i, j: j - a_vec[i - 1], lambda i, j: b_vec[j - 1] - i)
        rhs = sbpa_side(lambda i, j: k - a_vec[i - 1], lambda i, j: b_vec[j - 1] - k)
        worst = max(worst, abs(lhs - rhs))
    return worst
