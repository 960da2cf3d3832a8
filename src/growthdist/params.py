"""Model parameters, scaling constants and index bookkeeping.

The corner growth model with geometric(q) weights is parametrized either
directly (``ModelParams``: grid corners ``(m_k, n_k)`` and thresholds
``a_k``) or through space-time points of its scaling limit (``KPZParams``:
times ``t_k``, positions ``x_k``, heights ``xi_k`` at a scale ``T``).  The
bridge between the two is

    n_k = t_k T - c1 x_k (t_k T)^(2/3),
    m_k = t_k T + c1 x_k (t_k T)^(2/3),
    a_k = c2 t_k T + c3 xi_k (t_k T)^(1/3),

with the q-dependent constants

    c0 = q^(-1/3) (1+sqrt(q))^(1/3),      c1 = q^(-1/6) (1+sqrt(q))^(2/3),
    c2 = 2 sqrt(q) / (1-sqrt(q)),         c3 = q^(1/6) (1+sqrt(q))^(1/3) / (1-sqrt(q)),
    c4 = q^(1/3) (1-sqrt(q)) / (1+sqrt(q))^(1/3) = w_c / c0,

where ``w_c = 1 - sqrt(q)`` and the fluctuation scale is ``nu_T = c0 T^(1/3)``.

This module also provides the combinatorial helpers used by the determinant
formulas: increment ("delta") calculus with the convention ``y_0 = 0``,
block-profile powers of auxiliary variables ``theta_k``,

    theta^eps(i)   = prod_k theta_k^(2 - eps_k - 1{i <= n_k}),
    theta(r | eps) = prod_{k<r} theta_k^(2-eps_k) * prod_{k>=r} theta_k^(1-eps_k),
    Theta(r | k)   = theta(r|eps^k) - theta(r|eps^{k+1})
                     for 1 <= k < min(r, p-1), else 0,

with ``eps^k = (2,...,2,1,...,1)`` (k-1 twos), and the enumeration of
admissible sign vectors ``eps`` attached to an index pair ``k1 < k2``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterator, Sequence

from .errors import SchemaError

__all__ = [
    "ScalingConstants",
    "ModelParams",
    "KPZParams",
    "LimitParams",
    "compute_constants",
    "discretize",
    "delta",
    "delta_x",
    "delta_xi",
    "delta_txxi",
    "theta_profile",
    "big_theta",
    "admissible_eps",
    "eps_sign_exponent",
    "mu_bound",
    "parse_instance",
    "instance_digest",
]


# ---------------------------------------------------------------------------
# scaling constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingConstants:
    """The q-dependent constants of the growth-to-KPZ dictionary."""

    q: float
    w_c: float
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float


def compute_constants(q: float) -> ScalingConstants:
    """Return the scaling constants for a geometric weight parameter ``q``.

    Parameters
    ----------
    q : float
        Weight parameter, must satisfy ``0 < q < 1``.
    """
    if not (0.0 < q < 1.0):
        raise SchemaError(f"q must lie in (0, 1), got {q!r}")
    sq = math.sqrt(q)
    c0 = (1.0 + sq) ** (1.0 / 3.0) * q ** (-1.0 / 3.0)
    c1 = q ** (-1.0 / 6.0) * (1.0 + sq) ** (2.0 / 3.0)
    c2 = 2.0 * sq / (1.0 - sq)
    c3 = q ** (1.0 / 6.0) * (1.0 + sq) ** (1.0 / 3.0) / (1.0 - sq)
    c4 = q ** (1.0 / 3.0) * (1.0 - sq) / (1.0 + sq) ** (1.0 / 3.0)
    return ScalingConstants(q=q, w_c=1.0 - sq, c0=c0, c1=c1, c2=c2, c3=c3, c4=c4)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def _as_int_tuple(name: str, values: Sequence) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be a sequence of finite integers") from exc
    for v, raw in zip(out, values):
        if float(raw) != float(v):
            raise SchemaError(f"{name} must contain integers, got {raw!r}")
    return out


def _as_float_tuple(name: str, values: Sequence) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name} must be a sequence of numbers") from exc
    if not all(math.isfinite(v) for v in out):
        raise SchemaError(f"{name} must contain finite numbers")
    return out


def _validate_points(params: KPZParams | LimitParams) -> None:
    """Normalize and check the space-time points ``t, x, xi`` and ``mu``."""
    for name in ("t", "x", "xi"):
        object.__setattr__(params, name, _as_float_tuple(name, getattr(params, name)))
    t = params.t
    p = len(t)
    if p == 0 or len(params.x) != p or len(params.xi) != p:
        raise SchemaError("t, x, xi must be non-empty and of equal length")
    if t[0] <= 0 or any(t[k] <= t[k - 1] for k in range(1, p)):
        raise SchemaError("t must be positive and strictly increasing")
    if params.mu is not None and not (0 <= params.mu < math.inf):
        raise SchemaError("mu must be finite and non-negative")


@dataclass(frozen=True)
class ModelParams:
    """A finite multi-point instance of the growth model.

    The event of interest is ``G(m_k, n_k) < a_k`` simultaneously for
    ``k = 1..p``, where ``G`` is the last-passage time with geometric(q)
    weights.  The corners must be ordered: ``m`` and ``n`` strictly
    increasing (a single point is ``p = 1``).
    """

    q: float
    m: tuple[int, ...]
    n: tuple[int, ...]
    a: tuple[int, ...]

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise SchemaError(f"q must lie in (0, 1), got {self.q!r}")
        object.__setattr__(self, "m", _as_int_tuple("m", self.m))
        object.__setattr__(self, "n", _as_int_tuple("n", self.n))
        object.__setattr__(self, "a", _as_int_tuple("a", self.a))
        p = len(self.m)
        if p == 0 or len(self.n) != p or len(self.a) != p:
            raise SchemaError("m, n, a must be non-empty and of equal length")
        if any(v < 1 for v in self.m) or any(v < 1 for v in self.n):
            raise SchemaError("corner coordinates must be >= 1")
        for k in range(1, p):
            if not (self.m[k] > self.m[k - 1] and self.n[k] > self.n[k - 1]):
                raise SchemaError("m and n must be strictly increasing")

    @property
    def p(self) -> int:
        return len(self.m)

    def blocked(self, k: int) -> tuple[int, int, int]:
        """Profile values ``(n(i), m(i), a(i))`` shared by block ``r``.

        ``k`` is the block index ``r`` in 1..p; the profile uses
        ``min(r, p-1)`` so the last block reuses the values of block p-1.
        """
        r = min(k, self.p - 1) if self.p > 1 else 1
        return self.n[r - 1], self.m[r - 1], self.a[r - 1]


@dataclass(frozen=True)
class KPZParams:
    """Space-time points of the rescaled model at a finite scale ``T``."""

    q: float
    T: float
    t: tuple[float, ...]
    x: tuple[float, ...]
    xi: tuple[float, ...]
    mu: float | None = None

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise SchemaError(f"q must lie in (0, 1), got {self.q!r}")
        if not 0 < self.T < math.inf:
            raise SchemaError("T must be positive and finite")
        _validate_points(self)

    @property
    def p(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class LimitParams:
    """Space-time points of the scaling limit itself (no q, no T)."""

    t: tuple[float, ...]
    x: tuple[float, ...]
    xi: tuple[float, ...]
    mu: float | None = None

    def __post_init__(self):
        _validate_points(self)

    @property
    def p(self) -> int:
        return len(self.t)


def discretize(kpz: KPZParams) -> ModelParams:
    """Map KPZ coordinates at scale ``T`` to integer grid parameters.

    Values are rounded to the nearest integer and the resulting corner
    sequences are validated: a spread of ``x_k`` too wide for the scale
    ``T`` can break monotonicity, which raises a ``SchemaError``.
    """
    c = compute_constants(kpz.q)
    m, n, a = [], [], []
    for tk, xk, xik in zip(kpz.t, kpz.x, kpz.xi):
        tT = tk * kpz.T
        bulk = tT
        wander = c.c1 * xk * tT ** (2.0 / 3.0)
        n.append(round(bulk - wander))
        m.append(round(bulk + wander))
        a.append(round(c.c2 * tT + c.c3 * xik * tT ** (1.0 / 3.0)))
    return ModelParams(q=kpz.q, m=tuple(m), n=tuple(n), a=tuple(a))


# ---------------------------------------------------------------------------
# increment ("delta") calculus; the convention is y_0 = 0 for every vector
# ---------------------------------------------------------------------------

def _at(y: Sequence[float], k: int) -> float:
    if k == 0:
        return 0.0
    return y[k - 1]


def delta(y: Sequence[float], k1: int, k2: int) -> float:
    """Plain increment ``y_{k2} - y_{k1}`` with ``y_0 = 0``."""
    return _at(y, k2) - _at(y, k1)


def delta_x(t: Sequence[float], x: Sequence[float], k1: int, k2: int) -> float:
    """Weighted position increment attached to the pair ``k1 < k2``.

    ``Delta_{k1,k2} x = x_{k2} (t_{k2}/Delta t)^(2/3) - x_{k1} (t_{k1}/Delta t)^(2/3)``
    with ``Delta t = t_{k2} - t_{k1}`` and the ``k = 0`` terms equal to zero.
    """
    dt = delta(t, k1, k2)
    if dt <= 0:
        raise ValueError(f"time increment must be positive, got {dt}")
    out = 0.0
    if k2 != 0:
        out += _at(x, k2) * (_at(t, k2) / dt) ** (2.0 / 3.0)
    if k1 != 0:
        out -= _at(x, k1) * (_at(t, k1) / dt) ** (2.0 / 3.0)
    return out


def delta_xi(t: Sequence[float], xi: Sequence[float], k1: int, k2: int) -> float:
    """Weighted height increment; as ``delta_x`` but with exponent 1/3."""
    dt = delta(t, k1, k2)
    if dt <= 0:
        raise ValueError(f"time increment must be positive, got {dt}")
    out = 0.0
    if k2 != 0:
        out += _at(xi, k2) * (_at(t, k2) / dt) ** (1.0 / 3.0)
    if k1 != 0:
        out -= _at(xi, k1) * (_at(t, k1) / dt) ** (1.0 / 3.0)
    return out


def delta_txxi(
    t: Sequence[float], x: Sequence[float], xi: Sequence[float], k1: int, k2: int
) -> tuple[float, float, float]:
    """Convenience bundle ``(Delta t, Delta x, Delta xi)`` for ``k1 < k2``."""
    return (delta(t, k1, k2), delta_x(t, x, k1, k2), delta_xi(t, xi, k1, k2))


# ---------------------------------------------------------------------------
# theta profiles
# ---------------------------------------------------------------------------

def theta_eps_power(
    i: int, n: Sequence[int], eps: Sequence[int], thetas: Sequence[complex]
) -> complex:
    """``theta^eps(i) = prod_k theta_k^(2 - eps_k - 1{i <= n_k})``.

    ``eps`` and ``thetas`` have length p-1 and ``n`` is the full corner
    vector (only its first p-1 entries enter).
    """
    out = complex(1.0)
    for ek, nk, th in zip(eps, n, thetas):
        out *= th ** (2 - ek - (1 if i <= nk else 0))
    return out


def theta_profile(r: int, eps: Sequence[int], thetas: Sequence[complex]) -> complex:
    """``theta(r|eps) = prod_{k<r} theta_k^(2-eps_k) prod_{k>=r} theta_k^(1-eps_k)``."""
    out = complex(1.0)
    for k, (ek, th) in enumerate(zip(eps, thetas), start=1):
        out *= th ** ((2 - ek) if k < r else (1 - ek))
    return out


def eps_canonical(k: int, p: int) -> tuple[int, ...]:
    """``eps^k``: k-1 leading twos followed by ones, length p-1 (1 <= k <= p)."""
    if not (1 <= k <= p):
        raise ValueError(f"k must lie in 1..{p}, got {k}")
    return tuple(2 if j < k - 1 else 1 for j in range(p - 1))


def big_theta(r: int, k: int, thetas: Sequence[complex], p: int) -> complex:
    """``Theta(r|k)`` for ``1 <= k < min(r, p-1)``; zero otherwise."""
    if not (1 <= k < min(r, p - 1)):
        return complex(0.0)
    out = theta_profile(r, eps_canonical(k, p), thetas)
    out -= theta_profile(r, eps_canonical(k + 1, p), thetas)
    return out


# ---------------------------------------------------------------------------
# admissible sign vectors for an index pair
# ---------------------------------------------------------------------------

def admissible_eps(k1: int, k2: int, p: int) -> Iterator[tuple[int, ...]]:
    """Enumerate sign vectors attached to ``0 <= k1 < k2 <= p``.

    Entries are forced to 2 below the window and to 1 above it; the window
    ``max(k1, 1) <= k <= min(k2, p-1)`` (1-based positions) is free.
    """
    if not (0 <= k1 < k2 <= p):
        raise ValueError(f"need 0 <= k1 < k2 <= {p}, got ({k1}, {k2})")
    lo = max(k1, 1)
    hi = min(k2, p - 1)
    free = max(0, hi - lo + 1)
    for window in _iproduct((1, 2), repeat=free):
        eps = []
        it = iter(window)
        for pos in range(1, p):
            if pos < lo:
                eps.append(2)
            elif pos > hi:
                eps.append(1)
            else:
                eps.append(next(it))
        yield tuple(eps)


def eps_sign_exponent(eps: Sequence[int], k1: int, k2: int, p: int) -> int:
    """``eps[k1,k2] = sum_{k=max(1,k1)}^{min(k2,p-1)} eps_k`` (1-based)."""
    lo = max(1, k1)
    hi = min(k2, p - 1)
    return sum(eps[k - 1] for k in range(lo, hi + 1))


def mu_bound(t: Sequence[float], x: Sequence[float]) -> float:
    """Least admissible decay rate for the kernel conjugation.

    ``mu`` must exceed ``(max_k x_k t_k^(2/3) - min_k x_k t_k^(2/3)) /
    min_k (t_k - t_{k-1})^(1/3)`` (with ``t_0 = 0``).
    """
    w = [xk * tk ** (2.0 / 3.0) for tk, xk in zip(t, x)]
    gaps = [t[0]] + [t[k] - t[k - 1] for k in range(1, len(t))]
    return (max(w) - min(w)) / min(gaps) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# JSON instance schemas
# ---------------------------------------------------------------------------

def parse_instance(doc: dict) -> ModelParams | KPZParams | LimitParams:
    """Build a parameter object from a JSON-style mapping.

    Three schemas are accepted (see ``docs/schemas.md``):

    * discrete: ``{"q", "m", "n", "a"}`` (optional redundant ``"p"``),
    * scaled:   ``{"q", "T", "t", "x", "xi"}`` (optional ``"mu"``),
    * limit:    ``{"t", "x", "xi"}`` (optional ``"mu"``).
    """
    if not isinstance(doc, dict):
        raise SchemaError("instance must be a JSON object")
    keys = set(doc)
    if {"m", "n", "a"} <= keys:
        if "q" not in keys:
            raise SchemaError("discrete instance requires q")
        extra = keys - {"q", "p", "m", "n", "a"}
        if extra:
            raise SchemaError(f"unexpected keys for discrete instance: {sorted(extra)}")
        params = ModelParams(q=doc["q"], m=doc["m"], n=doc["n"], a=doc["a"])
        if "p" in doc and int(doc["p"]) != params.p:
            raise SchemaError(f"p={doc['p']} does not match vectors of length {params.p}")
        return params
    if {"t", "x", "xi"} <= keys:
        if "T" in keys or "q" in keys:
            extra = keys - {"q", "T", "t", "x", "xi", "mu"}
            if extra:
                raise SchemaError(f"unexpected keys for scaled instance: {sorted(extra)}")
            if not {"q", "T"} <= keys:
                raise SchemaError("scaled instance requires both q and T")
            return KPZParams(
                q=doc["q"], T=doc["T"], t=doc["t"], x=doc["x"], xi=doc["xi"],
                mu=doc.get("mu"),
            )
        extra = keys - {"t", "x", "xi", "mu"}
        if extra:
            raise SchemaError(f"unexpected keys for limit instance: {sorted(extra)}")
        return LimitParams(t=doc["t"], x=doc["x"], xi=doc["xi"], mu=doc.get("mu"))
    raise SchemaError(
        "instance must provide either (q, m, n, a), (q, T, t, x, xi) or (t, x, xi)"
    )


def instance_digest(doc: dict) -> str:
    """Stable hex digest of a JSON instance (canonical key order)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
