"""Workload instances, their references and the seeded instance generator.

Each workload is a fixed list of pinned instances, whose references were
computed once by a slower or independent route and are frozen here, plus
instances drawn from the workload seed.  A seeded instance has no frozen
reference; ``live_check`` derives one, untimed, from an independent public
route of ``growthdist`` before the timed loop starts.

The configs follow ``docs/schemas.md``.  Parameter ranges keep the cost
of a run nearly independent of the seed: seeded limit points share the
anchor's grids and theta rings, the seeded DP corner has a fixed state
count, and the small seeded discrete corners are under 1% of the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# The scaled p=2 configuration of the finite-size and Monte Carlo instances.
SCALED = {"q": 0.25, "t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}

TW_GRID = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0)
MC_SAMPLES = 16384
MC_STDERRS = 5.0

# Frozen references.  Each entry: value, absolute tolerance, and the route
# that produced it.
EXACT_ROUTE = (
    "multipoint_prob_exact with perturbed contours (theta_radius=3, "
    "radius_scale=0.9, mu=0.5) at tol=1e-12, computed once"
)
REFERENCES = {
    "anchor": (
        0.9720743806856159, 5e-6,
        "anchor of tests/test_asymptotic.py (multitime_cdf, default settings)",
    ),
    "exact-T10": (0.9614780985957585, 1e-8, EXACT_ROUTE),
    "exact-T20": (0.9582821119296754, 1e-8, EXACT_ROUTE),
    "exact-T40": (0.9602127601938305, 1e-8, EXACT_ROUTE),
    "exact-p3": (
        0.09684594115895459, 1e-8,
        "dp_exact_prob (transfer-matrix DP, about 23 s), computed once",
    ),
    "tw-sweep": (
        (
            0.003544553595509128, 0.08031955293933456, 0.41322414250512296,
            0.8072142419992862, 0.9693728283552644, 0.9975054381493901,
            0.9998875536983088,
        ),
        1e-9,
        "tracy_widom with nodes=192 (twice the CLI default), computed once",
    ),
}


@dataclass(frozen=True)
class Check:
    """What an evaluation's output must satisfy.

    ``kind`` is ``abs`` (``|value - ref| <= tol``), ``bounds``
    (``lo - tol <= value <= hi + tol`` with ``ref = (lo, hi)``), ``stderr``
    (``|value - ref| <= tol * stderr``) or ``sweep`` (``abs`` per point).
    """

    kind: str
    ref: object
    tol: float
    route: str


@dataclass(frozen=True)
class Instance:
    """One timed evaluation: a CLI subcommand on a generated config."""

    name: str
    command: str
    config: dict | None
    args: tuple[str, ...] = ()
    check: Check | None = None
    seeded: bool = False


def _pinned(name: str, command: str, config: dict | None, args=()) -> Instance:
    ref, tol, route = REFERENCES[name]
    kind = "sweep" if isinstance(ref, tuple) else "abs"
    return Instance(name, command, config, tuple(args), Check(kind, ref, tol, route))


def _scaled(T: float) -> dict:
    return {**SCALED, "T": T}


def _limit_seeded(rng: np.random.Generator, k: int) -> Instance:
    # p=2 limit points near the anchor: the grid (96 then 192 nodes) and
    # theta rings (112 then 208 nodes) are the same for every draw, and the
    # narrow ranges keep the contour lines within +-20% of the anchor's.
    t2 = round(float(rng.uniform(1.75, 2.25)), 4)
    x = [round(float(v), 4) for v in rng.uniform(-0.1, 0.1, size=2)]
    xi = [round(float(v), 4) for v in rng.uniform(0.1, 0.5, size=2)]
    config = {"t": [1.0, t2], "x": x, "xi": xi}
    return Instance(f"limit-seeded-{k}", "asymptotic", config, seeded=True)


def _discrete_seeded(rng: np.random.Generator, k: int) -> Instance:
    # Small p=2 corners: 48 determinants of side <= 4 per refinement level,
    # and a DP state space of at most C(11, 4) = 330 for the check.
    q = round(float(rng.uniform(0.2, 0.6)), 4)
    m = sorted(int(v) for v in rng.choice(np.arange(1, 6), size=2, replace=False))
    n = sorted(int(v) for v in rng.choice(np.arange(1, 5), size=2, replace=False))
    mean = q / (1.0 - q)
    a = [
        max(1, int(round(mean * (math.sqrt(mk) + math.sqrt(nk)) ** 2)) + int(rng.integers(0, 3)))
        for mk, nk in zip(m, n)
    ]
    a[1] = min(max(a[1], a[0]), 8)
    a[0] = min(a[0], a[1])
    config = {"q": q, "m": m, "n": n, "a": a}
    return Instance(f"discrete-seeded-{k}", "exact", config, seeded=True)


def _oracle_seeded(rng: np.random.Generator) -> Instance:
    # Fixed corners and cap keep the DP at C(15, 5) = 3003 states (about
    # 1 s); q and the first level vary with the seed.
    q = round(float(rng.uniform(0.3, 0.5)), 4)
    config = {"q": q, "m": [4, 8], "n": [3, 5], "a": [int(rng.integers(6, 8)), 11]}
    return Instance("dp-seeded", "oracle", config, seeded=True)


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of ``workload``, pinned first, then those drawn from ``seed``."""
    rng = np.random.default_rng(seed % 2**63)
    if workload == "fredholm":
        return [
            _pinned("anchor", "asymptotic", {"t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}),
            _limit_seeded(rng, 1),
            _pinned("exact-T10", "exact", _scaled(10)),
            _pinned("exact-T20", "exact", _scaled(20)),
            _pinned("exact-T40", "exact", _scaled(40)),
            _pinned("exact-p3", "exact", {"q": 0.4, "m": [3, 6, 9], "n": [2, 4, 6], "a": [5, 9, 13]}),
            _discrete_seeded(rng, 1),
            _discrete_seeded(rng, 2),
        ]
    if workload == "oracles":
        ref, _, route = REFERENCES["exact-T40"]
        mc_seed = int(rng.integers(0, 2**63))
        simulate = Instance(
            "simulate-T40", "simulate", _scaled(40),
            ("--samples", str(MC_SAMPLES), "--workers", "1", "--seed", str(mc_seed)),
            Check("stderr", ref, MC_STDERRS, f"exact at T=40: {route}"),
        )
        sweep = ",".join(repr(s) for s in TW_GRID)
        return [
            simulate,
            _pinned("tw-sweep", "tw", None, (f"--s={sweep}", "--format", "json")),
            _oracle_seeded(rng),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fredholm", "oracles")

# The instance groups the end-to-end figures are also broken down by:
# the limit law, the finite-size formula, and the independent oracles.
GROUP = {
    "asymptotic": "limit",
    "exact": "finite",
    "simulate": "oracles",
    "tw": "oracles",
    "oracle": "oracles",
}


def live_check(inst: Instance) -> Instance:
    """Attach a check derived, untimed, from an independent public route."""
    from growthdist import (
        ModelParams,
        dp_exact_prob,
        multipoint_prob_exact,
        tracy_widom,
    )

    cfg = inst.config
    if inst.command == "asymptotic":
        # One-time marginals F_k = F_GUE(xi_k + x_k^2) bound the joint law:
        # max(0, F1 + F2 - 1) <= P <= min(F1, F2).
        f = [tracy_widom(xi + x * x) for x, xi in zip(cfg["x"], cfg["xi"])]
        lo, hi = max(0.0, sum(f) - (len(f) - 1)), min(f)
        check = Check("bounds", (lo, hi), REFERENCES["anchor"][1],
                      "Frechet bounds from tracy_widom marginals")
    else:
        params = ModelParams(q=cfg["q"], m=tuple(cfg["m"]), n=tuple(cfg["n"]), a=tuple(cfg["a"]))
        if inst.command == "exact":
            check = Check("abs", dp_exact_prob(params), 1e-8, "dp_exact_prob")
        elif inst.command == "oracle":
            check = Check("abs", multipoint_prob_exact(params).value, 1e-8,
                          "multipoint_prob_exact")
        else:
            raise ValueError(f"no live check for {inst.command}")
    return replace(inst, check=check)


def outcome(inst: Instance, doc: dict) -> tuple[object, bool]:
    """The value an output document reports and whether it passes the check."""
    chk = inst.check
    if inst.command == "tw":
        value = tuple(row["F_GUE"] for row in doc["sweep"])
        ok = len(value) == len(chk.ref) and all(
            abs(v - r) <= chk.tol for v, r in zip(value, chk.ref)
        )
        return value, ok
    value = doc["value"]
    diag = doc.get("diagnostics", {})
    if diag.get("converged") is False or not isinstance(value, float) or not math.isfinite(value):
        return value, False
    if chk.kind == "abs":
        return value, abs(value - chk.ref) <= chk.tol
    if chk.kind == "bounds":
        lo, hi = chk.ref
        return value, lo - chk.tol <= value <= hi + chk.tol
    if chk.kind == "stderr":
        return value, abs(value - chk.ref) <= chk.tol * diag["stderr"]
    raise ValueError(f"unknown check kind {chk.kind!r}")
