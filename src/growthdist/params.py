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
The profiles are symbolic: ``theta_profile`` gives the exponents of
``theta(r|eps)`` and ``big_theta`` the ``Laurent`` polynomial ``Theta(r|k)``,
evaluated only by ``linalg``; ``theta_eps_power`` is the numeric reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import product as _iproduct, zip_longest
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

def _number(name: str, value) -> numbers.Real:
    """``value`` if it is a real number (numpy scalars too), not a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise SchemaError(f"{name} must be a number, got {value!r}")


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is a number with an integer value."""
    _number(name, value)
    try:
        out = int(value)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be a finite integer, got {value!r}") from exc
    if out != value:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return out


def _entries(name: str, values) -> tuple:
    """The entries of a vector field: an array, not a string or a mapping."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise SchemaError(f"{name} must be an array of numbers, got {values!r}")
    return tuple(values)


def _as_int_tuple(name: str, values) -> tuple[int, ...]:
    return tuple(_integer(f"{name} entries", v) for v in _entries(name, values))


def _as_float_tuple(name: str, values) -> tuple[float, ...]:
    out = tuple(float(_number(f"{name} entries", v)) for v in _entries(name, values))
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
    if params.mu is not None and not (0 <= _number("mu", params.mu) < math.inf):
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
        if not (0.0 < _number("q", self.q) < 1.0):
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


def _short_side(params: ModelParams) -> ModelParams:
    """``params`` with ``m, n`` swapped if ``n_p > m_p``: the weights are i.i.d.,
    so ``G(n_k, m_k)`` has the law of ``G(m_k, n_k)`` (Johansson, CMP 209, 2000)."""
    if params.n[-1] > params.m[-1]:
        return ModelParams(q=params.q, m=params.n, n=params.m, a=params.a)
    return params


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
        if not (0.0 < _number("q", self.q) < 1.0):
            raise SchemaError(f"q must lie in (0, 1), got {self.q!r}")
        if not 0 < _number("T", self.T) < math.inf:
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


def _weighted_increment(
    t: Sequence[float], y: Sequence[float], k1: int, k2: int, power: float
) -> float:
    dt = delta(t, k1, k2)
    if dt <= 0:
        raise ValueError(f"time increment must be positive, got {dt}")
    out = 0.0
    if k2 != 0:
        out += _at(y, k2) * (_at(t, k2) / dt) ** power
    if k1 != 0:
        out -= _at(y, k1) * (_at(t, k1) / dt) ** power
    return out


def delta_x(t: Sequence[float], x: Sequence[float], k1: int, k2: int) -> float:
    """Weighted position increment attached to the pair ``k1 < k2``.

    ``Delta_{k1,k2} x = x_{k2} (t_{k2}/Delta t)^(2/3) - x_{k1} (t_{k1}/Delta t)^(2/3)``
    with ``Delta t = t_{k2} - t_{k1}`` and the ``k = 0`` terms equal to zero.
    """
    return _weighted_increment(t, x, k1, k2, 2.0 / 3.0)


def delta_xi(t: Sequence[float], xi: Sequence[float], k1: int, k2: int) -> float:
    """Weighted height increment; as ``delta_x`` but with exponent 1/3."""
    return _weighted_increment(t, xi, k1, k2, 1.0 / 3.0)


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


class Laurent(dict):
    """Sparse Laurent polynomial ``{exponent tuple: real coefficient}`` in ``theta``.

    Entry ``i`` of a key is the power of ``theta_(i+1)``.  Keys carry no
    trailing zeros, so the constant monomial is ``()`` whatever the number
    of variables, and no coefficient is an exact zero.  Numbers act as
    constants, so a coefficient formula reads as its scalar form, e.g.
    ``tr - (1 + tr) * (1 + ts)``.
    """

    @classmethod
    def monomial(cls, exponents: Sequence[int], coef: float = 1.0) -> Laurent:
        key = tuple(exponents)
        while key and key[-1] == 0:
            key = key[:-1]
        return cls({key: float(coef)} if coef else {})

    def __add__(self, other) -> Laurent:
        out = dict(self)
        for key, c in _laurent(other).items():
            out[key] = out.get(key, 0.0) + c
        return Laurent({key: c for key, c in out.items() if c != 0.0})

    def __mul__(self, other) -> Laurent:
        return sum((Laurent.monomial([i + j for i, j in zip_longest(a, b, fillvalue=0)], c * d)
                    for a, c in self.items() for b, d in _laurent(other).items()), Laurent())

    def __neg__(self) -> Laurent:
        return self * -1.0

    def __sub__(self, other) -> Laurent:
        return self + -_laurent(other)

    __radd__, __rmul__ = __add__, __mul__


def _laurent(value) -> Laurent:
    return value if isinstance(value, Laurent) else Laurent.monomial((), value)


def theta_profile(r: int, eps: Sequence[int]) -> tuple[int, ...]:
    """Exponent vector of ``theta(r|eps)``, one entry per entry of ``eps``."""
    return tuple((2 - ek) if k < r else (1 - ek) for k, ek in enumerate(eps, start=1))


def eps_canonical(k: int, p: int) -> tuple[int, ...]:
    """``eps^k``: k-1 leading twos followed by ones, length p-1 (1 <= k <= p)."""
    if not (1 <= k <= p):
        raise ValueError(f"k must lie in 1..{p}, got {k}")
    return tuple(2 if j < k - 1 else 1 for j in range(p - 1))


def big_theta(r: int, k: int, p: int) -> Laurent:
    """``Theta(r|k)`` for ``1 <= k < min(r, p-1)``; the empty polynomial otherwise."""
    if not (1 <= k < min(r, p - 1)):
        return Laurent()
    return (Laurent.monomial(theta_profile(r, eps_canonical(k, p)))
            - Laurent.monomial(theta_profile(r, eps_canonical(k + 1, p))))


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


def _sign_windows(p: int):
    """Group the sign vectors of each pair ``k1 < k2`` by contour window.

    Yields ``(k1, k2, window, terms)``, ``terms`` a list of ``(sign, eps)``
    with the finite-size sign ``(-1)^(eps[k1,k2] + k1 + min(k2, p-1))``.  The
    window ``eps_{k1+1..k2-1}`` fixes the contour ordering; the other free
    components only affect the weight.  It is both routes' one such walk.
    """
    for k1 in range(0, p + 1):
        for k2 in range(k1 + 1, p + 1):
            groups: dict[tuple[int, ...], list] = {}
            for eps in admissible_eps(k1, k2, p):
                sign = (-1) ** (eps_sign_exponent(eps, k1, k2, p) + k1 + min(k2, p - 1))
                groups.setdefault(eps[k1:k2 - 1], []).append((sign, eps))
            yield from ((k1, k2, window, terms) for window, terms in groups.items())


def _window_piece(p: int, k1: int, k2: int, r: int, s: int) -> str | None:
    """The piece, at most one, that a window of ``(k1, k2)`` puts on block ``(r, s)``:
    ``"L"`` (``L^eps``, the limit's family 6), ``"J"`` (``J^eps``, family 5),
    ``"Lp"`` (``L_p``, family 1) or ``None``."""
    if k1 < min(r, p - 1) and min(s, p - 1) < k2:
        return "L"
    if k1 < min(r, p - 1) and s == k2 < p:
        return "J"
    return "Lp" if k1 == p - 1 and k2 == p and r == p else None


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
        if "p" in doc and _integer("p", doc["p"]) != params.p:
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
