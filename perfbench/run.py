"""Closed-loop benchmark of the ``growthdist`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload limit --seed 1 --seconds 30 --trace 0

One client sends each evaluation only after the previous one finished.
Every timed evaluation is an in-process call of ``growthdist.cli.main``
on a generated ``--config`` whose output document is read back and
checked against a reference (see ``instances.py``).  The workload's
instances are evaluated in cycles until ``--seconds`` have passed, with
at least two cycles; each instance's time is the median over cycles.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
evaluation untraced and then traced and prints the per-layer metrics
(see ``tracing.py``).  The last line of standard output is the result
object; the line before it records the environment, every instance with
its value and reference, and, when traced, where the time went.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instances
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_CYCLES = 2
SETUP_REPS = 9

# Layer metrics whose share of traced wall time justifies each group.
SHARES = {
    "linalg.det_s": ("linalg.det_s",),
    "exact.self_s+params.theta_s": ("exact.self_s", "params.theta_s"),
    "growth.mc_s+integrands.airy_s+oracle.dp_s": ("growth.mc_s", "integrands.airy_s", "oracle.dp_s"),
}

END_TO_END = {
    "wall_s": "s",
    "slowest_eval_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "1",
}

# Interpreter start, package import and schema parse of the inputs, as
# every command-line call pays them.
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import growthdist.cli
from growthdist.params import parse_instance
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_instance(json.load(fh))
"""


def import_cli():
    """The ``growthdist.cli`` module of this checkout's sources."""
    if not (SRC / "growthdist" / "cli.py").is_file():
        raise ImportError(f"no growthdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import growthdist.cli

    if not Path(growthdist.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"growthdist was imported from {growthdist.cli.__file__}")
    return growthdist.cli


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "clients": 1,
    }


def measure_setup(configs: list[Path]) -> float:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, configs)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def evaluate(cli, inst, config: Path | None, out: Path, tracer=None) -> dict:
    """One timed CLI evaluation and its verdict.

    ``cli.main`` is looked up at call time so that the tracer's wrapper runs.
    """
    argv = [inst.command]
    if config is not None:
        argv += ["--config", str(config)]
    argv += [*inst.args, "--out", str(out)]
    out.unlink(missing_ok=True)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    error = None
    with tracer if tracer is not None else contextlib.nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # an uncaught crash is a failed evaluation
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    sample = {"wall": wall, "cpu": cpu, "ok": False, "value": None, "doc": None}
    if code != 0:
        sample["error"] = error or f"exit code {code}"
        return sample
    try:
        doc = json.loads(out.read_text(encoding="utf-8"))
        sample["value"], sample["ok"] = instances.outcome(inst, doc)
        sample["doc"] = doc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sample["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return sample


def run_cycles(cli, insts, configs, out: Path, seconds: float, tracer=None):
    """Evaluate every instance per cycle until ``seconds`` have passed."""
    plain = {inst.name: [] for inst in insts}
    traced = {inst.name: [] for inst in insts}
    start, last, cycles = time.perf_counter(), 0.0, 0
    while cycles < MIN_CYCLES or time.perf_counter() - start + last <= seconds:
        c0 = time.perf_counter()
        for inst in insts:
            plain[inst.name].append(evaluate(cli, inst, configs[inst.name], out))
            if tracer is not None:
                sample = evaluate(cli, inst, configs[inst.name], out, tracer)
                sample["layers"] = tracer.evaluation(inst.command, inst.config, sample["doc"])
                sample["edges"] = tracer.edges
                traced[inst.name].append(sample)
        last = time.perf_counter() - c0
        cycles += 1
    return plain, traced, cycles


def mark_irreproducible(samples: list[dict]) -> None:
    """Fail every evaluation whose value differs from the first one's."""
    first = samples[0]["value"]
    for s in samples[1:]:
        if s["ok"] and s["value"] != first:
            s["ok"] = False
            s["error"] = f"value {s['value']!r} differs from first run {first!r}"


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def write_profile(path: Path, traced: dict) -> None:
    total: dict[tuple[str, str], list] = {}
    for samples in traced.values():
        for s in samples:
            for key, (calls, incl, own) in s["edges"].items():
                rec = total.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += own
    rows = [
        {"parent": p, "function": f, "calls": c, "inclusive_s": i, "self_s": s}
        for (p, f), (c, i, s) in sorted(total.items(), key=lambda kv: -kv[1][2])
    ]
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def benchmark(insts, seconds: float, trace: bool, name: str) -> tuple[dict, dict]:
    """Measure ``insts``; returns (record, result).  ``name`` labels the trace profile."""
    cli = import_cli()
    insts = [instances.live_check(inst) if inst.seeded else inst for inst in insts]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir()
    try:
        configs = {}
        for inst in insts:
            configs[inst.name] = None
            if inst.config is not None:
                configs[inst.name] = work / f"{inst.name}.json"
                configs[inst.name].write_text(json.dumps(inst.config), encoding="utf-8")
        setup_s = measure_setup([p for p in configs.values() if p is not None])
        tracer = tracing.Tracer() if trace else None
        plain, traced, cycles = run_cycles(cli, insts, configs, work / "out.json", seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records, inst_layers = [], {}
    attempted = failed = 0
    for inst in insts:
        samples = plain[inst.name] + traced[inst.name]
        mark_irreproducible(samples)
        attempted += len(samples)
        bad = [s for s in samples if not s["ok"]]
        failed += len(bad)
        chk = inst.check
        records.append({
            "name": inst.name,
            "command": inst.command,
            "seeded": inst.seeded,
            "config": inst.config,
            "args": list(inst.args),
            "value": samples[0]["value"],
            "reference": {"kind": chk.kind, "ref": chk.ref, "tol": chk.tol, "route": chk.route},
            "evaluations": len(samples),
            "failed": len(bad),
            "errors": sorted({s.get("error", "outside reference tolerance") for s in bad}),
            "median_wall_s": median_of(plain[inst.name], "wall"),
            "wall_s": [s["wall"] for s in plain[inst.name]],
        })
        if trace:
            inst_layers[inst.name] = {
                key: statistics.median(s["layers"][key] for s in traced[inst.name])
                for key in traced[inst.name][0]["layers"]
            }

    walls = [median_of(plain[inst.name], "wall") for inst in insts]
    groups = {}
    for inst in insts:
        groups.setdefault(instances.GROUP[inst.command], []).append(inst)
    values = {
        "wall_s": sum(walls),
        "slowest_eval_s": max(walls),
        "cpu_s": sum(median_of(plain[inst.name], "cpu") for inst in insts),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    record = {
        "seconds": seconds,
        "cycles": cycles,
        "environment": environment(),
        "instances": records,
        "end_to_end": values,
        "wall_s_by_group": {
            g: sum(median_of(plain[i.name], "wall") for i in members)
            for g, members in groups.items()
        },
    }
    if trace:
        traced_wall = sum(median_of(traced[inst.name], "wall") for inst in insts)
        sums = {key: sum(v[key] for v in inst_layers.values()) for key in inst_layers[insts[0].name]}
        metrics = tracing.finish(sums, traced_wall / values["wall_s"] - 1.0)
        record["absent"] = tracer.absent()
        record["share_of_traced_wall"] = {}
        for g, members in groups.items():
            wall = sum(median_of(traced[i.name], "wall") for i in members)
            record["share_of_traced_wall"][g] = {
                label: sum(inst_layers[i.name][k] for i in members for k in keys) / wall
                for label, keys in SHARES.items()
            }
        profile = OUT / f"trace-{name}.json"
        write_profile(profile, traced)
        record["profile"] = str(profile.relative_to(ROOT))
        block = metric_block(metrics, tracing.PER_LAYER)
    else:
        block = metric_block(values, END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": block}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    insts = instances.build(args.workload, args.seed)
    name = f"{args.workload}-seed{args.seed}"
    try:
        record, result = benchmark(insts, args.seconds, bool(args.trace), name)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, **record}, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
