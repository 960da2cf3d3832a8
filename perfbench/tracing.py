"""Span tracer over the public functions of ``growthdist``'s layers.

The tracer wraps every public function of each layer module in every
module namespace that holds it (``growthdist.exact.lu_det`` and
``growthdist.linalg.lu_det`` are the same function looked up in two
places), so a call is seen whichever name the caller uses.  A span stack
gives each span its self time: its duration minus the time covered by the
spans it caused.

Spans are aggregated in memory as they close, by (parent, function) edge:
the p=3 finite-size instance alone opens about 600k spans, so a list of
raw spans would be larger than the program's own working set.  The edge
profile is written out at the end of the run.

A function a later version of the package no longer has is simply not
wrapped; the metrics that only it feeds are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "growthdist"
LAYERS = ("cli", "params", "integrands", "linalg", "exact", "asymptotic", "growth", "oracle")

DET = ("linalg.lu_det", "linalg.nystrom_det")
THETA = ("params.theta_profile", "params.big_theta")
AIRY = ("integrands.airy_ai",)
QUAD = ("integrands.circle", "integrands.composite_gl", "integrands.gauss_legendre")
MAIN = "cli.main"
# The functions through which each CLI subcommand does its evaluation;
# the rest of ``main`` is config load, schema parse and output.
ENTRIES = (
    "exact.multipoint_prob_exact",
    "asymptotic.multitime_cdf",
    "asymptotic.tracy_widom",
    "growth.mc_multipoint",
    "oracle.dp_exact_prob",
)

# name -> unit, in the order they are reported.
PER_LAYER = {
    "linalg.det_calls": "count",
    "linalg.det_s": "s",
    "linalg.det_gflop": "GFLOP",
    "linalg.det_gflop_per_s": "GFLOP/s",
    "params.theta_calls": "count",
    "params.theta_s": "s",
    "exact.self_s": "s",
    "exact.levels": "count",
    "exact.contour_nodes": "count",
    "exact.theta_nodes": "count",
    "asymptotic.self_s": "s",
    "asymptotic.levels": "count",
    "asymptotic.grid_nodes": "count",
    "asymptotic.theta_nodes": "count",
    "asymptotic.accepted_det_ratio": "1",
    "integrands.airy_points": "count",
    "integrands.airy_s": "s",
    "integrands.quad_s": "s",
    "growth.samples": "count",
    "growth.mc_s": "s",
    "growth.us_per_sample": "us",
    "oracle.dp_s": "s",
    "oracle.states": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}

# Diagnostics fields of the result documents (docs/schemas.md) behind the
# work counts: metric -> (subcommand, field).
DIAGNOSTICS = {
    "exact.levels": ("exact", "levels"),
    "exact.contour_nodes": ("exact", "nodes"),
    "exact.theta_nodes": ("exact", "grid"),
    "asymptotic.levels": ("asymptotic", "levels"),
    "asymptotic.grid_nodes": ("asymptotic", "grid"),
    "asymptotic.theta_nodes": ("asymptotic", "nodes"),
    "oracle.states": ("oracle", "states"),
    "growth.samples": ("simulate", "nsamples"),
}


def _det_size(name: str, args: tuple) -> int:
    if name == "linalg.lu_det":
        return np.shape(args[0])[0]
    return len(args[1])


class Tracer:
    """Wraps the layer functions while active; one instance per run."""

    def __init__(self):
        self.functions: dict[str, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self.functions[f"{layer}.{name}"] = obj
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in self.functions.items()}
        self.reset()

    def reset(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}
        self.det_calls = 0
        self.det_flop = 0.0
        self.airy_points = 0

    def has(self, names) -> bool:
        return any(n in self.functions for n in names)

    def _wrap(self, qual: str, fn):
        stack, clock = self._stack, time.perf_counter
        is_det, is_airy = qual in DET, qual in AIRY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_det and (parent is None or parent[0] not in DET):
                n = _det_size(qual, args)
                self.det_calls += 1
                self.det_flop += 8.0 * n ** 3 / 3.0
            elif is_airy:
                self.airy_points += np.size(args[0])
            frame = [qual, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (parent[0] if parent else "", qual)
                rec = self.edges.get(key)
                if rec is None:
                    rec = self.edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt

        return traced

    def __enter__(self):
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        self._stack.clear()
        return False

    # -- aggregation -----------------------------------------------------

    def _self(self, names) -> float:
        return sum(rec[2] for (_, child), rec in self.edges.items() if child in names)

    def _calls(self, names) -> int:
        return sum(rec[0] for (_, child), rec in self.edges.items() if child in names)

    def _layer(self, layer: str) -> tuple[str, ...]:
        return tuple(q for q in self.functions if q.startswith(layer + "."))

    def evaluation(self, command: str, config: dict | None, doc: dict | None) -> dict:
        """Additive per-layer quantities of the evaluation traced since ``reset``."""
        out = {
            "linalg.det_calls": self.det_calls,
            "linalg.det_s": self._self(DET),
            "linalg.det_gflop": self.det_flop / 1e9,
            "params.theta_calls": self._calls(THETA),
            "params.theta_s": self._self(THETA),
            "exact.self_s": self._self(self._layer("exact")),
            "asymptotic.self_s": self._self(self._layer("asymptotic")),
            "integrands.airy_points": self.airy_points,
            "integrands.airy_s": self._self(AIRY),
            "integrands.quad_s": self._self(QUAD),
            "growth.mc_s": self._self(self._layer("growth")),
            "oracle.dp_s": self._self(self._layer("oracle")),
            "cli.self_s": sum(rec[1] for (_, c), rec in self.edges.items() if c == MAIN)
            - sum(rec[1] for (p, c), rec in self.edges.items() if p == MAIN and c in ENTRIES),
            "asymptotic.dets": sum(
                rec[0] for (p, c), rec in self.edges.items()
                if p == "asymptotic.multitime_cdf" and c in DET
            ),
            "asymptotic.accepted_dets": 0,
        }
        for metric, (cmd, key) in DIAGNOSTICS.items():
            out[metric] = 0
            if cmd == command and doc is not None:
                out[metric] = doc["diagnostics"].get(key, 0)
        if command == "asymptotic" and doc is not None:
            p = len(config["t"])
            out["asymptotic.accepted_dets"] = doc["diagnostics"].get("nodes", 0) ** (p - 1)
        return out

    def absent(self) -> list[str]:
        """Metrics whose defining functions this version of the package lacks."""
        needs = {
            "linalg.det_calls": DET, "linalg.det_s": DET, "linalg.det_gflop": DET,
            "linalg.det_gflop_per_s": DET,
            "params.theta_calls": THETA, "params.theta_s": THETA,
            "exact.self_s": self._layer("exact"),
            "asymptotic.self_s": self._layer("asymptotic"),
            "asymptotic.accepted_det_ratio": DET,
            "integrands.airy_points": AIRY, "integrands.airy_s": AIRY,
            "integrands.quad_s": QUAD,
            "growth.mc_s": self._layer("growth"),
            "growth.us_per_sample": self._layer("growth"),
            "oracle.dp_s": self._layer("oracle"),
            "cli.self_s": (MAIN,),
        }
        return sorted(m for m, names in needs.items() if not self.has(names))


def finish(sums: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics of a workload from summed per-evaluation quantities."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {name: sums.get(name, 0) for name in PER_LAYER}
    values["linalg.det_gflop_per_s"] = ratio(sums["linalg.det_gflop"], sums["linalg.det_s"])
    values["asymptotic.accepted_det_ratio"] = ratio(
        sums["asymptotic.accepted_dets"], sums["asymptotic.dets"]
    )
    values["growth.us_per_sample"] = 1e6 * ratio(sums["growth.mc_s"], sums["growth.samples"])
    values["trace.overhead_ratio"] = overhead_ratio
    return values
