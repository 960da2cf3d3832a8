"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import instances
import run
import tracing
from instances import Check, Instance

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# P(G(1,1) < 2, G(3,2) < 4) for q = 0.4, from dp_exact_prob.
TINY = Instance(
    "tiny", "exact", {"q": 0.4, "m": [1, 3], "n": [1, 2], "a": [2, 4]},
    check=Check("abs", 0.5308034457599999, 1e-8, "dp_exact_prob"),
)
SWEEP = Instance(
    "tw-one", "tw", None, ("--s=0.0", "--format", "json"),
    check=Check("sweep", (0.9693728283552644,), 1e-9, "tracy_widom nodes=192"),
)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_tiny_reference_is_the_dp_value(cli):
    from growthdist import ModelParams, dp_exact_prob

    cfg = TINY.config
    got = dp_exact_prob(ModelParams(q=cfg["q"], m=tuple(cfg["m"]), n=tuple(cfg["n"]), a=tuple(cfg["a"])))
    assert got == pytest.approx(TINY.check.ref, abs=1e-9)


def test_wrong_reference_counts_as_failure(cli):
    wrong = replace(TINY, name="wrong", check=replace(TINY.check, ref=TINY.check.ref + 0.01))
    _, result = run.benchmark([TINY, wrong], 0.0, False, "selftest")
    assert result["attempted"] == 2 * run.MIN_CYCLES
    assert result["failed"] == run.MIN_CYCLES
    assert not result["correct"]
    assert result["metrics"]["pass_ratio"]["value"] == pytest.approx(0.5)


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(cli, trace, kind):
    _, result = run.benchmark([TINY, SWEEP], 0.0, trace, "selftest")
    assert result["correct"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_and_untraced_outputs_are_identical(cli, tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY.config), encoding="utf-8")
    docs = []
    for tracer in (None, tracing.Tracer()):
        for inst, path in ((TINY, cfg), (SWEEP, None)):
            sample = run.evaluate(cli, inst, path, tmp_path / "out.json", tracer)
            assert sample["ok"], sample.get("error")
            sample["doc"]["diagnostics"].pop("runtime_ms")
            docs.append(json.dumps(sample["doc"], sort_keys=True))
    assert docs[:2] == docs[2:]


def test_tracer_sees_calls_through_every_namespace_and_restores(cli, tmp_path):
    import growthdist.exact
    import growthdist.linalg

    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY.config), encoding="utf-8")
    original = growthdist.linalg.lu_det
    tracer = tracing.Tracer()
    sample = run.evaluate(cli, TINY, cfg, tmp_path / "out.json", tracer)
    assert sample["ok"]
    assert growthdist.linalg.lu_det is original and growthdist.exact.lu_det is original
    assert tracer.edges[("", tracing.MAIN)][0] == 1
    assert tracer.edges[("exact.multipoint_prob_exact", "linalg.lu_det")][0] == tracer.det_calls > 0


def test_missing_function_is_reported_absent(monkeypatch, cli):
    import growthdist.params

    monkeypatch.delattr(growthdist.params, "theta_profile")
    monkeypatch.delattr(growthdist.params, "big_theta")
    absent = tracing.Tracer().absent()
    assert "params.theta_s" in absent and "params.theta_calls" in absent
    assert "linalg.det_s" not in absent


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_generator_is_seeded_and_follows_the_schemas(cli, workload):
    from growthdist.params import parse_instance

    first = instances.build(workload, 7)
    assert first == instances.build(workload, 7)
    assert [i.name for i in first] == [i.name for i in instances.build(workload, 8)]
    for inst in first:
        if inst.config is not None:
            parse_instance(json.loads(json.dumps(inst.config)))
        assert inst.seeded or inst.check is not None
    seeded = [i for i in first if i.seeded]
    assert seeded and seeded != [i for i in instances.build(workload, 8) if i.seeded]
