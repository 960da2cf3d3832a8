"""Batch command-line front end.

Subcommands
-----------
simulate    Monte Carlo estimate for a discrete instance.
oracle      Transfer-matrix dynamic program (exact ground truth, small sizes).
exact       Finite-size contour-integral evaluation.
asymptotic  Limiting multi-time law.
tw          Tracy-Widom GUE distribution over an s-grid (CSV sweep).
validate    Route-agreement suite with a pass/fail table: the exact formula,
            its limit and the oracles checked against each other, against
            closed forms, the Harris sandwich and reflection; exit 1 on a failure.

Each subcommand takes exactly the options it reads; any other option is an
argparse usage error (exit 2).  The four instance subcommands (``simulate``,
``oracle``, ``exact``, ``asymptotic``) take ``--config``, ``--out``,
``--seed`` and ``--budget`` and share one path from the config to the written
document; ``tw`` takes no config, and ``validate`` only ``--out`` and
``--seed``.

Results are JSON documents ``{value, diagnostics{...}, provenance{config,
seed}}`` (CSV only for the ``tw`` sweep and the ``simulate`` row, under
``--format csv``).  Output is byte-identical for identical config and seed,
except for the runtime field.  Exit codes: 0 success, 1 failed validation,
2 schema violation, 3 numerical non-convergence, 4 budget exceeded (time,
or memory numpy refuses to allocate).  Output files are written atomically
after the computation finishes, so failures leave no partial files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time

from .asymptotic import LimitSettings, fredholm_det_F, multitime_cdf, tracy_widom
from .errors import BudgetError, ConvergenceError, SchemaError
from .exact import multipoint_prob_exact
from .growth import mc_multipoint
from .integrands import composite_gl
from .linalg import FredholmResult, _check_deadline
from .oracle import _dp_peak_states, dp_exact_prob, truncated_sum_prob, verify_sbp
from .params import (
    KPZParams,
    LimitParams,
    ModelParams,
    discretize,
    instance_digest,
    parse_instance,
)


def _load_config(path: str | None) -> dict:
    if path is None:
        raise SchemaError("this subcommand requires --config with an instance file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"config {path}: top-level value must be an object")
    return doc


def _as_discrete(doc: dict) -> ModelParams:
    params = parse_instance(doc)
    if isinstance(params, KPZParams):
        return discretize(params)
    if isinstance(params, ModelParams):
        return params
    raise SchemaError(
        "this subcommand needs a discrete {q,m,n,a} or scaled {q,T,t,x,xi} instance"
    )


def _as_limit(doc: dict) -> LimitParams:
    params = parse_instance(doc)
    if isinstance(params, LimitParams):
        return params
    if isinstance(params, KPZParams):
        return LimitParams(t=params.t, x=params.x, xi=params.xi, mu=params.mu)
    raise SchemaError(
        "this subcommand needs a limit {t,x,xi} or scaled {q,T,t,x,xi} instance"
    )


def _emit(args, payload: dict | None, rows: list[dict] | None) -> None:
    """Serialize the result and write it in one shot (atomic on files)."""
    if rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    tmp = args.out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise SchemaError(f"cannot write --out {args.out}: {exc}") from exc


def _payload(value, diagnostics: dict, doc: dict, seed: int | None) -> dict:
    return {
        "value": value,
        "diagnostics": diagnostics,
        "provenance": {"config": instance_digest(doc), "seed": seed},
    }


def _deadline(args) -> float | None:
    if args.budget is None:
        return None
    if not args.budget >= 0:
        raise SchemaError(f"--budget must be a non-negative number, got {args.budget}")
    return time.monotonic() + args.budget


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_instance(args) -> int:
    """Load ``--config``, evaluate it and write one result document.

    ``args.compute(args, doc)`` returns the value and its diagnostics;
    ``simulate`` also returns its CSV row, written instead under
    ``--format csv``.  The evaluation is timed here, as ``runtime_ms``.
    """
    doc = _load_config(args.config)
    start = time.perf_counter()
    value, diagnostics, *row = args.compute(args, doc)
    diagnostics["runtime_ms"] = 1e3 * (time.perf_counter() - start)
    if row and args.format == "csv":
        _emit(args, None, row)
    else:
        _emit(args, _payload(value, diagnostics, doc, args.seed), None)
    return 0


def _given(**options) -> dict:
    """The options given on the command line: a library default is the default."""
    return {name: value for name, value in options.items() if value is not None}


def _fredholm(res: FredholmResult, nodes: int, grid: int) -> tuple:
    """Value and diagnostics of either Fredholm route, which names its two node counts."""
    return res.value, {
        "delta": res.delta,
        "nodes": nodes,
        "grid": grid,
        "theta_tail": res.theta_tail,
        "levels": res.levels,
        "first_level": res.first_level,
    }


def _cmd_simulate(args, doc: dict) -> tuple:
    if args.workers < 1:
        raise SchemaError(f"--workers must be at least 1, got {args.workers}")
    res = mc_multipoint(
        _as_discrete(doc), args.samples, seed=args.seed, workers=args.workers,
        deadline=_deadline(args),
    )
    diagnostics = {"stderr": res.stderr, "successes": res.successes, "nsamples": res.nsamples}
    row = {
        "estimate": f"{res.estimate:.12g}",
        "stderr": f"{res.stderr:.12g}",
        "successes": res.successes,
        "nsamples": res.nsamples,
    }
    return res.estimate, diagnostics, row


def _cmd_oracle(args, doc: dict) -> tuple:
    if args.state_budget is not None and args.state_budget < 0:
        raise SchemaError(f"--state-budget must be non-negative, got {args.state_budget}")
    params = _as_discrete(doc)
    value = dp_exact_prob(params, deadline=_deadline(args),
                          **_given(state_budget=args.state_budget))
    return value, {"states": _dp_peak_states(params)}


def _cmd_exact(args, doc: dict) -> tuple:
    res = multipoint_prob_exact(
        _as_discrete(doc),
        deadline=_deadline(args),
        **_given(mu=args.mu, tol=args.tol, base_nodes=args.base_nodes,
                 max_levels=args.max_levels, theta_radius=args.theta_radius,
                 radius_scale=args.radius_scale),
    )
    # the contour nodes per circle, and the theta nodes per circle
    return _fredholm(res, nodes=res.nodes, grid=res.theta_nodes)


def _cmd_asymptotic(args, doc: dict) -> tuple:
    inst = _as_limit(doc)
    settings = LimitSettings(**_given(
        extent=args.extent, block_nodes=args.block_nodes, theta_radius=args.theta_radius,
        mu=args.mu, tol=args.tol, max_levels=args.max_levels,
    ))
    res = multitime_cdf(inst, settings, deadline=_deadline(args))
    # the theta nodes per circle, and the Nystrom nodes over all blocks
    return _fredholm(res, nodes=res.theta_nodes, grid=inst.p * res.nodes)


def _cmd_tw(args) -> int:
    try:
        grid = [float(tok) for tok in args.s.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"--s must be a comma-separated float list: {exc}")
    if not grid:
        raise SchemaError("--s must be a non-empty comma-separated float list")
    deadline = _deadline(args)
    start = time.perf_counter()
    values = []
    for s in grid:
        _check_deadline(deadline, "the Tracy-Widom sweep")
        values.append(tracy_widom(s, nodes=args.nodes))
    ms = 1e3 * (time.perf_counter() - start)
    if args.format == "json":
        # the rule takes whole 12-node panels; record the count it used
        doc = {"s": grid, "nodes": len(composite_gl(0.0, 1.0, args.nodes)[0])}
        payload = _payload(
            None,
            {"runtime_ms": ms},
            doc,
            args.seed,
        )
        payload["sweep"] = [
            {"s": s, "F_GUE": v} for s, v in zip(grid, values)
        ]
        _emit(args, payload, None)
        return 0
    rows = [
        {"s": f"{s:.12g}", "F_GUE": f"{v:.12g}"} for s, v in zip(grid, values)
    ]
    _emit(args, None, rows)
    return 0


# ---------------------------------------------------------------------------
# validate: the routes checked against each other and against theorems
# ---------------------------------------------------------------------------

def _validate_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, err: float, tol: float) -> None:
        checks.append((name, err < tol, f"err {err:.3g} (tol {tol:g})"))

    add("summation-by-parts identities", verify_sbp(seed=0, trials=2), 1e-12)

    tiny = ModelParams(q=0.4, m=(1, 3), n=(1, 2), a=(2, 4))
    add(
        "DP vs determinantal sum",
        abs(dp_exact_prob(tiny) - truncated_sum_prob(tiny)),
        1e-12,
    )

    single = ModelParams(q=0.5, m=(1,), n=(1,), a=(3,))
    add(
        "single-point closed form 1 - q^a",
        abs(multipoint_prob_exact(single).value - (1.0 - 0.5 ** 3)),
        1e-10,
    )

    p1 = LimitParams(t=(1.0,), x=(0.0,), xi=(0.1,))
    add(
        "one-time determinant matches Tracy-Widom",
        abs(fredholm_det_F((), p1).real - tracy_widom(0.1)),
        1e-6,
    )

    # Harris (1960): both events are decreasing, so they are positively
    # correlated, and the law lies between the marginals' product and minimum
    anchor = LimitParams(t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4))
    value = multitime_cdf(anchor).value
    marginals = [tracy_widom(xi + x * x) for x, xi in zip(anchor.x, anchor.xi)]
    lo, hi = math.prod(marginals), min(marginals)
    checks.append((
        "two-time limit law between F1*F2 and min F_k",
        lo <= value <= hi,
        f"{lo:.5f} <= {value:.5f} <= {hi:.5f}",
    ))

    dropped = LimitParams(t=anchor.t, x=anchor.x, xi=(anchor.xi[0], 5.0))
    add(
        "two-time limit law at xi_2 = 5 is F_GUE(xi_1)",
        abs(multitime_cdf(dropped).value - tracy_widom(anchor.xi[0])),
        1e-6,
    )

    tilted = LimitParams(t=(1.0, 1.5), x=(0.1, -0.2), xi=(0.3, 0.5))
    mirror = LimitParams(t=tilted.t, x=tuple(-x for x in tilted.x), xi=tilted.xi)
    add(
        "tilted limit law invariant under x -> -x",
        abs(multitime_cdf(tilted).value - multitime_cdf(mirror).value),
        LimitSettings().tol,
    )

    corner = ModelParams(q=0.4, m=(3, 6), n=(2, 4), a=(5, 9))
    add(
        "refined two-point exact vs DP",
        abs(multipoint_prob_exact(corner).value - dp_exact_prob(corner)),
        1e-9,
    )

    scaled = discretize(KPZParams(q=0.25, T=40.0, t=(1.0, 2.0), x=(0.0, 0.0), xi=(0.2, 0.4)))
    add(
        "exact invariant under contour layout",
        abs(multipoint_prob_exact(scaled).value - multipoint_prob_exact(
            scaled, radius_scale=1.3, theta_radius=3.0, mu=0.5).value),
        1e-9,
    )

    zero_ev = ModelParams(q=0.5, m=(2,), n=(2,), a=(1,))
    add(
        "forced-zero event probability (1-q)^4",
        abs(multipoint_prob_exact(zero_ev).value - 0.0625),
        1e-8,
    )
    return checks


def _cmd_validate(args) -> int:
    start = time.perf_counter()
    checks = _validate_checks()
    ms = 1e3 * (time.perf_counter() - start)
    width = max(len(name) for name, _, _ in checks)
    lines = [f"{'check'.ljust(width)}  status  detail"]
    lines.append(f"{'-' * width}  ------  {'-' * 24}")
    for name, ok, detail in checks:
        lines.append(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}    {detail}")
    passed = sum(1 for _, ok, _ in checks if ok)
    lines.append(f"{passed}/{len(checks)} checks passed in {ms:.0f} ms")
    print("\n".join(lines))
    if args.out is not None:
        payload = {
            "value": passed == len(checks),
            "diagnostics": {
                "passed": passed,
                "total": len(checks),
                "failed": [name for name, ok, _ in checks if not ok],
                "runtime_ms": ms,
            },
            "provenance": {"config": instance_digest({"suite": "validate"}),
                           "seed": args.seed},
        }
        _emit(args, payload, None)
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache  # parsing does not change the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthdist",
        description="Growth-model multi-time distributions: simulation, exact "
        "finite-size evaluation, and the scaling limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--config": dict(help="path to a JSON instance file"),
        "--out": dict(help="output path (default: stdout)"),
        "--seed": dict(type=int, default=0, help="RNG seed (uint64)"),
        "--budget": dict(type=float, default=None, help="time budget in seconds"),
    }

    def command(name: str, help: str, options: tuple, **defaults):
        cmd = sub.add_parser(name, help=help)
        for option in options:
            cmd.add_argument(option, **shared[option])
        cmd.set_defaults(**defaults)
        return cmd

    instance = ("--config", "--out", "--seed", "--budget")

    sim = command("simulate", "Monte Carlo estimate", instance,
                  func=_run_instance, compute=_cmd_simulate)
    sim.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="a JSON document or a one-row CSV table",
    )
    sim.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for the sample chunks; the result does not depend on it",
    )
    sim.add_argument("--samples", type=int, default=10000, help="sample count")

    orc = command("oracle", "exact DP ground truth", instance,
                  func=_run_instance, compute=_cmd_oracle)
    orc.add_argument(
        "--state-budget", type=int, default=None,
        help="maximum admissible DP state-space size",
    )

    exa = command("exact", "finite-size contour formula", instance,
                  func=_run_instance, compute=_cmd_exact)
    exa.add_argument("--tol", type=float, default=None, help="convergence tolerance")
    exa.add_argument("--mu", type=float, default=None, help="conjugation exponent")
    exa.add_argument(
        "--base-nodes", type=int, default=None,
        help="contour nodes per circle of level 0 of the schedule (even); the run starts "
        "at the level the circle geometry chooses",
    )
    exa.add_argument(
        "--max-levels", type=int, default=None,
        help="index of the finest level allowed (nodes grown by sqrt 2 per level)",
    )
    exa.add_argument(
        "--theta-radius", type=float, default=None, help="radius of the theta circles"
    )
    exa.add_argument(
        "--radius-scale", type=float, default=None,
        help="multiplier of the contour offsets from the critical point; 1 is the "
        "default layout of two fluctuation units (the value does not depend on it)",
    )

    asy = command("asymptotic", "limiting multi-time law", instance,
                  func=_run_instance, compute=_cmd_asymptotic)
    asy.add_argument("--tol", type=float, default=None, help="convergence tolerance")
    asy.add_argument("--mu", type=float, default=None, help="conjugation rate override")
    asy.add_argument("--extent", type=float, default=None, help="half-line truncation")
    asy.add_argument(
        "--block-nodes", type=int, default=None,
        help="initial nodes per block, rounded to whole 12-node panels (at least 8)",
    )
    asy.add_argument(
        "--theta-radius", type=float, default=None, help="radius of the theta circles"
    )
    asy.add_argument(
        "--max-levels", type=int, default=None,
        help="grid refinements (panels grown by sqrt 2) allowed after the first "
        "evaluation",
    )

    tw = command("tw", "Tracy-Widom GUE sweep", ("--out", "--seed", "--budget"),
                 func=_cmd_tw)
    tw.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="a CSV table or a JSON document",
    )
    tw.add_argument(
        "--s", default="-4,-3,-2,-1,0,1,2",
        help="comma-separated s values (give negative ones as --s=-4,-1)",
    )
    tw.add_argument(
        "--nodes", type=int, default=96,
        help="quadrature nodes, rounded to whole 12-node panels",
    )

    command("validate", "route-agreement suite", ("--out", "--seed"), func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 2 ** 64:
            raise SchemaError(f"--seed must be in [0, 2**64), got {args.seed}")
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: memory budget exceeded in '{args.command}': {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
