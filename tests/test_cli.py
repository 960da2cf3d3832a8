"""Exit codes and output documents of the command-line front end."""

from __future__ import annotations

import json
import re
import warnings

import pytest

from growthdist.asymptotic import multitime_cdf
from growthdist.cli import main
from growthdist.params import LimitParams

ANCHOR = '{"t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}'
TINY = '{"q": 0.4, "m": [1, 3], "n": [1, 2], "a": [2, 4]}'
# a steep tilt whose determinants overflow at the first theta node
OVERFLOWING = '{"t": [1, 1.25], "x": [0.1, -0.2], "xi": [0.3, 0.5]}'


def _run(tmp_path, command: str, config: str | None, *extra: str) -> tuple[int, dict | None]:
    argv = [command, *extra]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    out = tmp_path / "out.json"
    argv += ["--out", str(out)]
    code = main(argv)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, doc


def test_asymptotic_converges_with_one_doubling(tmp_path):
    code, doc = _run(tmp_path, "asymptotic", ANCHOR, "--max-levels", "1")
    assert code == 0
    assert doc["diagnostics"]["levels"] == 1
    assert doc["value"] == pytest.approx(0.9720743806856159, abs=5e-6)


def test_validate_passes(tmp_path, capsys):
    code, doc = _run(tmp_path, "validate", None)
    assert code == 0
    assert doc["value"] is True
    assert "FAIL" not in capsys.readouterr().out


def test_failed_validation_exits_1(tmp_path, capsys, monkeypatch):
    import growthdist.cli

    checks, failed = growthdist.cli._validate_checks, []

    def first_fails():
        (name, _, detail), *rest = checks()
        failed.append(name)
        return [(name, False, detail), *rest]

    monkeypatch.setattr(growthdist.cli, "_validate_checks", first_fails)
    code, doc = _run(tmp_path, "validate", None)
    assert code == 1
    assert doc["value"] is False
    assert doc["diagnostics"]["failed"] == failed
    (name,) = failed
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith(name))
    assert "FAIL" in row


@pytest.mark.parametrize(
    "command, config",
    [
        ("exact", '{"q": 0.5, "m": [1, 3], "n": [1, 2], "a": [2, 1e400]}'),
        ("asymptotic", '{"t": [1.0, 2.0], "x": [0.0, NaN], "xi": [0.2, 0.4]}'),
    ],
    ids=["overflowing-a", "nan-x"],
)
def test_non_finite_numbers_are_schema_errors(tmp_path, capsys, command, config):
    code, doc = _run(tmp_path, command, config)
    assert code == 2 and doc is None
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, needle",
    [
        ("exact", TINY, "last delta"),
        ("asymptotic", ANCHOR, "last delta"),
        ("asymptotic", OVERFLOWING, "at theta node (0,) of n_theta=8"),
    ],
    ids=["exact", "asymptotic", "non-finite-det"],
)
def test_non_convergence_reports_last_delta(tmp_path, capsys, command, config, needle):
    code, doc = _run(tmp_path, command, config, "--max-levels", "0")
    assert code == 3 and doc is None
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        '{"q": 0.05, "m": [500], "n": [500], "a": [60]}',
        '{"q": 0.9, "m": [300], "n": [300], "a": [5000]}',
    ],
    ids=["small-q", "large-a"],
)
def test_overflowing_single_point_exits_3_at_once(tmp_path, capsys, config):
    # p = 1 determinants that overflow: a non-finite value, not a crash, a
    # numpy warning or a run through every level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run(tmp_path, "exact", config)
    assert code == 3 and doc is None
    err = capsys.readouterr().err
    assert "non-finite determinant" in err and "theta node" not in err


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("exact", TINY, ("--budget", "0")),
        ("asymptotic", ANCHOR, ("--budget", "0")),
        ("oracle", TINY, ("--state-budget", "1")),
        ("oracle", TINY, ("--state-budget", "0")),
        ("simulate", TINY, ("--samples", "100000", "--budget", "0")),
        ("oracle", TINY, ("--budget", "0")),
        ("tw", None, ("--budget", "0")),
    ],
    ids=["exact", "asymptotic", "oracle-states", "oracle-no-states", "simulate",
         "oracle", "tw"],
)
def test_zero_budget_exits_4(tmp_path, capsys, command, config, extra):
    code, doc = _run(tmp_path, command, config, *extra)
    assert code == 4 and doc is None
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("simulate", TINY, ("--seed", "-1")),
        ("simulate", TINY, ("--seed", str(2 ** 64))),
        ("simulate", TINY, ("--workers", "0")),
        ("tw", None, ("--points", "1")),
        ("tw", None, ("--s", ",")),
        ("tw", None, ("--s", "")),
        ("exact", TINY, ("--budget", "nan")),
        ("asymptotic", ANCHOR, ("--budget", "-1")),
        ("exact", TINY, ("--base-nodes", "0")),
        ("exact", TINY, ("--max-levels", "-1")),
        ("asymptotic", ANCHOR, ("--max-levels", "-1")),
        ("exact", TINY, ("--tol", "-1")),
        ("asymptotic", ANCHOR, ("--tol", "-1")),
        ("tw", None, ("--s", "0", "--nodes", "0")),
        ("tw", None, ("--s", "0", "--nodes", "-12")),
        ("asymptotic", ANCHOR, ("--block-nodes", "0")),
        ("exact", TINY, ("--theta-radius", "nan")),
        ("exact", TINY, ("--theta-radius", "inf")),
        ("exact", TINY, ("--radius-scale", "0")),
        ("exact", TINY, ("--radius-scale", "nan")),
        ("exact", TINY, ("--radius-scale", "-1")),
        ("exact", TINY, ("--mu", "nan")),
        ("exact", TINY, ("--mu", "inf")),
        ("asymptotic", ANCHOR, ("--theta-radius", "nan")),
        ("asymptotic", ANCHOR, ("--theta-radius", "inf")),
        ("asymptotic", ANCHOR, ("--extent", "nan")),
        ("asymptotic", ANCHOR, ("--extent", "inf")),
        ("oracle", TINY, ("--state-budget", "-1")),
    ],
    ids=[
        "negative-seed", "seed-overflow", "no-workers", "one-point-sweep",
        "comma-only-s", "empty-s", "nan-budget", "negative-budget", "no-base-nodes",
        "exact-negative-levels", "asymptotic-negative-levels", "exact-negative-tol",
        "asymptotic-negative-tol", "tw-no-nodes", "tw-negative-nodes", "no-block-nodes",
        "exact-nan-theta-radius", "exact-inf-theta-radius", "zero-radius-scale",
        "nan-radius-scale", "negative-radius-scale", "nan-mu", "inf-mu",
        "asymptotic-nan-theta-radius", "asymptotic-inf-theta-radius",
        "nan-extent", "inf-extent", "negative-state-budget",
    ],
)
def test_out_of_range_arguments_are_schema_errors(tmp_path, capsys, command, config, extra):
    code, doc = _run(tmp_path, command, config, *extra)
    assert code == 2 and doc is None
    assert "must be" in capsys.readouterr().err


def test_oracle_on_a_negative_threshold_is_zero(tmp_path):
    code, doc = _run(tmp_path, "oracle", '{"q": 0.5, "m": [2], "n": [2], "a": [-5]}')
    assert code == 0
    assert doc["value"] == 0.0
    assert doc["diagnostics"]["states"] == 0


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("simulate", TINY, ("--samples", "2000", "--seed", "7", "--workers", "2")),
        ("oracle", TINY, ()),
        ("tw", None, ("--points", "3", "--format", "json")),
    ],
    ids=["simulate", "oracle", "tw"],
)
def test_reruns_are_byte_identical_but_for_runtime(tmp_path, command, config, extra):
    texts = []
    for _ in range(2):
        code, doc = _run(tmp_path, command, config, *extra)
        assert code == 0 and doc["diagnostics"]["runtime_ms"] >= 0
        text = (tmp_path / "out.json").read_text(encoding="utf-8")
        texts.append(re.sub(r'"runtime_ms": [^,\n]*', "", text))
    assert texts[0] == texts[1]


def test_tw_records_the_node_count_it_used(tmp_path):
    docs = {}
    for nodes in ("12", "13", "96"):
        code, docs[nodes] = _run(tmp_path, "tw", None, "--s", "0", "--nodes", nodes,
                                 "--format", "json")
        assert code == 0
    assert docs["13"]["sweep"] == docs["12"]["sweep"]
    assert docs["13"]["provenance"] == docs["12"]["provenance"]
    assert docs["96"]["provenance"] != docs["12"]["provenance"]
    assert docs["96"]["sweep"][0]["F_GUE"] == pytest.approx(0.969373, abs=1e-6)


def test_impossible_allocation_exits_4(tmp_path, capsys, monkeypatch):
    import growthdist.cli

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                          "(2000000, 2000000) and data type float64")

    monkeypatch.setattr(growthdist.cli, "multipoint_prob_exact", refuse)
    code, doc = _run(tmp_path, "exact", TINY)
    assert code == 4 and doc is None
    err = capsys.readouterr().err
    assert "'exact'" in err and "29.1 TiB" in err


def test_three_time_limit_reduces_to_two_times(tmp_path):
    # P(H_3 > 4) is about 5e-8, so the third time leaves the two-time law
    code, doc = _run(
        tmp_path, "asymptotic",
        '{"t": [1, 1.5, 2], "x": [0, 0, 0], "xi": [0.3, 0.5, 4.0]}', "--budget", "60",
    )
    assert code == 0
    two = multitime_cdf(LimitParams(t=(1.0, 1.5), x=(0.0, 0.0), xi=(0.3, 0.5)))
    assert doc["value"] == pytest.approx(two.value, abs=1e-6)
