"""Batch command-line front end.

Subcommands
-----------
simulate    Monte Carlo estimate for a discrete instance.
oracle      Transfer-matrix dynamic program (exact ground truth, small sizes).
exact       Finite-size contour-integral evaluation.
asymptotic  Limiting multi-time law.
tw          Tracy-Widom GUE distribution over an s-grid (CSV sweep).
validate    Internal consistency suite with a pass/fail table.

Results are JSON documents ``{value, diagnostics{...}, provenance{config,
seed}}`` (CSV only for sweep/statistics tables).  Output is byte-identical
for identical config and seed, except for the runtime field.  Exit codes:
0 success, 1 failed validation, 2 schema violation, 3 numerical
non-convergence, 4 budget exceeded (time, or memory numpy refuses to
allocate).  Output files are written atomically after the computation
finishes, so failures leave no partial files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from .asymptotic import (
    LimitSettings,
    airy_form_kernel,
    d_for_eps,
    eval_basic_kernel,
    fredholm_det_F,
    multitime_cdf,
    tracy_widom,
)
from .errors import BudgetError, ConvergenceError, SchemaError
from .exact import multipoint_prob_exact
from .growth import mc_multipoint
from .integrands import circle, composite_gl
from .linalg import _check_deadline, block_grid, lu_det, nystrom_det
from .oracle import _dp_peak_states, dp_exact_prob, truncated_sum_prob, verify_sbp
from .params import (
    KPZParams,
    LimitParams,
    ModelParams,
    compute_constants,
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
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, args.out)


def _payload(value, diagnostics: dict, doc: dict, seed: int | None) -> dict:
    return {
        "value": value,
        "diagnostics": diagnostics,
        "provenance": {"config": instance_digest(doc), "seed": seed},
    }


def _deadline(args) -> float | None:
    if getattr(args, "budget", None) is None:
        return None
    return time.monotonic() + args.budget


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    params = _as_discrete(doc)
    start = time.perf_counter()
    res = mc_multipoint(
        params, args.samples, seed=args.seed, workers=args.workers,
        deadline=_deadline(args),
    )
    ms = 1e3 * (time.perf_counter() - start)
    if args.format == "csv":
        rows = [
            {
                "estimate": f"{res.estimate:.12g}",
                "stderr": f"{res.stderr:.12g}",
                "successes": res.successes,
                "nsamples": res.nsamples,
            }
        ]
        _emit(args, None, rows)
        return 0
    payload = _payload(
        res.estimate,
        {
            "stderr": res.stderr,
            "successes": res.successes,
            "nsamples": res.nsamples,
            "runtime_ms": ms,
        },
        doc,
        args.seed,
    )
    _emit(args, payload, None)
    return 0


def _cmd_oracle(args) -> int:
    if args.state_budget < 0:
        raise SchemaError(f"--state-budget must be non-negative, got {args.state_budget}")
    doc = _load_config(args.config)
    params = _as_discrete(doc)
    start = time.perf_counter()
    value = dp_exact_prob(params, state_budget=args.state_budget, deadline=_deadline(args))
    ms = 1e3 * (time.perf_counter() - start)
    payload = _payload(
        value,
        {
            "states": _dp_peak_states(params),
            "runtime_ms": ms,
        },
        doc,
        args.seed,
    )
    _emit(args, payload, None)
    return 0


def _cmd_exact(args) -> int:
    doc = _load_config(args.config)
    params = _as_discrete(doc)
    res = multipoint_prob_exact(
        params,
        mu=args.mu,
        tol=args.tol,
        base_nodes=args.base_nodes,
        max_levels=args.max_levels,
        theta_radius=args.theta_radius,
        radius_scale=args.radius_scale,
        deadline=_deadline(args),
    )
    payload = _payload(
        res.value,
        {
            "imag_part": res.imag_part,
            "delta": res.delta,
            "nodes": res.nodes,
            "grid": res.theta_nodes,
            "levels": res.levels,
            "converged": res.converged,
            "runtime_ms": res.runtime_ms,
        },
        doc,
        args.seed,
    )
    _emit(args, payload, None)
    return 0


def _cmd_asymptotic(args) -> int:
    doc = _load_config(args.config)
    inst = _as_limit(doc)
    overrides = {
        "extent": args.extent,
        "block_nodes": args.block_nodes,
        "theta_radius": args.theta_radius,
        "mu": args.mu,
        "tol": args.tol,
        "max_levels": args.max_levels,
    }
    settings = LimitSettings(**{k: v for k, v in overrides.items() if v is not None})
    res = multitime_cdf(inst, settings, deadline=_deadline(args))
    payload = _payload(
        res.value,
        {
            "imag_part": res.imag_part,
            "nodes": res.theta_nodes,
            "grid": res.grid_nodes,
            "levels": res.levels,
            "converged": res.converged,
            "runtime_ms": res.runtime_ms,
        },
        doc,
        args.seed,
    )
    _emit(args, payload, None)
    return 0


def _cmd_tw(args) -> int:
    if args.s is not None:
        try:
            grid = [float(tok) for tok in args.s.split(",") if tok.strip()]
        except ValueError as exc:
            raise SchemaError(f"--s must be a comma-separated float list: {exc}")
        if not grid:
            raise SchemaError("--s must be a non-empty comma-separated float list")
    else:
        if args.points < 2:
            raise SchemaError("--points must be at least 2")
        step = (args.s_max - args.s_min) / (args.points - 1)
        grid = [args.s_min + i * step for i in range(args.points)]
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
# validate: fast internal consistency suite
# ---------------------------------------------------------------------------

def _validate_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, err: float, tol: float) -> None:
        checks.append((name, err < tol, f"err {err:.3g} (tol {tol:g})"))

    c = compute_constants(0.25)
    add("scaling constant identity c4 = w_c/c0", abs(c.c4 - c.w_c / c.c0), 1e-14)

    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    add(
        "lu_det multiplicativity",
        abs(lu_det(a @ b) - lu_det(a) * lu_det(b)) / abs(lu_det(a) * lu_det(b)),
        1e-10,
    )

    grid = block_grid(1, 4.0, 32)
    one = nystrom_det(np.zeros((len(grid), len(grid))), grid)
    add("nystrom zero kernel -> 1", abs(one - 1.0), 1e-14)
    f = np.exp(-grid.nodes)
    rank_one = nystrom_det(np.outer(f, f), grid)
    exact_val = 1.0 + (1.0 - math.exp(-8.0)) / 2.0
    add("nystrom rank-one closed form", abs(rank_one - exact_val), 1e-10)

    ring = circle(0.0, 2.0, 64)
    resid = max(
        abs(ring.integrate(ring.nodes ** m / (ring.nodes - 1.0)) - (1.0 if m >= 0 else 0.0))
        for m in (-3, -1, 0, 2, 5)
    )
    add("circle trapezoid residue identity", resid, 1e-12)

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

    ladder = d_for_eps((2, 1), 0, 3)
    add(
        "eps ladder rescaling",
        max(abs(ladder[1] - 1.5), abs(ladder[2] - 0.5), abs(ladder[3] - 2.5)),
        1e-14,
    )

    inst = LimitParams(t=(1.0, 2.0), x=(0.1, -0.2), xi=(0.3, 0.5))
    kw = {"k": 1, "rtop": 2, "sbot": 0}
    c1 = eval_basic_kernel(2, kw, -0.7, -0.4, inst)
    c2 = airy_form_kernel(2, kw, -0.7, -0.4, inst)
    add("contour vs Airy form (two-line family)", abs(c1 - c2), 1e-6)

    p1 = LimitParams(t=(1.0,), x=(0.0,), xi=(0.1,))
    add(
        "one-time determinant matches Tracy-Widom",
        abs(fredholm_det_F((), p1).real - tracy_widom(0.1)),
        1e-6,
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthdist",
        description="Growth-model multi-time distributions: simulation, exact "
        "finite-size evaluation, and the scaling limit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON instance file")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="output format (default json; csv only for sweep tables)",
    )
    common.add_argument("--seed", type=int, default=0, help="RNG seed (uint64)")
    common.add_argument(
        "--workers", type=int, default=1, help="worker count for parallel sampling"
    )
    common.add_argument(
        "--tol", type=float, default=None, help="convergence tolerance override"
    )
    common.add_argument(
        "--budget", type=float, default=None, help="time budget in seconds"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo estimate")
    sim.add_argument("--samples", type=int, default=10000, help="sample count")
    sim.set_defaults(func=_cmd_simulate, default_format="json")

    orc = sub.add_parser("oracle", parents=[common], help="exact DP ground truth")
    orc.add_argument(
        "--state-budget", type=int, default=10 ** 6,
        help="maximum admissible DP state-space size",
    )
    orc.set_defaults(func=_cmd_oracle, default_format="json")

    exa = sub.add_parser("exact", parents=[common], help="finite-size contour formula")
    exa.add_argument("--mu", type=float, default=0.0, help="conjugation exponent")
    exa.add_argument("--base-nodes", type=int, default=64, help="initial contour nodes")
    exa.add_argument(
        "--max-levels", type=int, default=7,
        help="node doublings allowed after the first evaluation",
    )
    exa.add_argument(
        "--theta-radius", type=float, default=2.0, help="radius of the theta circles"
    )
    exa.add_argument(
        "--radius-scale", type=float, default=1.0,
        help="admissible rescaling of the descent contour radii",
    )
    exa.set_defaults(func=_cmd_exact, default_format="json")

    asy = sub.add_parser("asymptotic", parents=[common], help="limiting multi-time law")
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
        help="grid doublings allowed after the first evaluation (default 2)",
    )
    asy.set_defaults(func=_cmd_asymptotic, default_format="json")

    tw = sub.add_parser("tw", parents=[common], help="Tracy-Widom GUE sweep")
    tw.add_argument("--s", default=None, help="comma-separated s values")
    tw.add_argument("--s-min", type=float, default=-4.0, help="sweep start")
    tw.add_argument("--s-max", type=float, default=2.0, help="sweep end")
    tw.add_argument("--points", type=int, default=7, help="sweep length")
    tw.add_argument(
        "--nodes", type=int, default=96,
        help="quadrature nodes, rounded to whole 12-node panels",
    )
    tw.set_defaults(func=_cmd_tw, default_format="csv")

    val = sub.add_parser("validate", parents=[common], help="consistency suite")
    val.set_defaults(func=_cmd_validate, default_format="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    if args.format == "csv" and args.command not in ("tw", "simulate"):
        print(
            f"error: csv output is only available for sweep tables, "
            f"not for '{args.command}'",
            file=sys.stderr,
        )
        return 2
    if args.tol is None:
        args.tol = 1e-9 if args.command == "exact" else 2e-6
    try:
        if not 0 <= args.seed < 2 ** 64:
            raise SchemaError(f"--seed must be in [0, 2**64), got {args.seed}")
        if args.workers < 1:
            raise SchemaError(f"--workers must be at least 1, got {args.workers}")
        if args.budget is not None and not args.budget >= 0:
            raise SchemaError(f"--budget must be a non-negative number, got {args.budget}")
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
