"""Exit codes and output documents of the command-line front end."""

from __future__ import annotations

import json

import pytest

from growthdist.cli import main

ANCHOR = '{"t": [1.0, 2.0], "x": [0.0, 0.0], "xi": [0.2, 0.4]}'
TINY = '{"q": 0.4, "m": [1, 3], "n": [1, 2], "a": [2, 4]}'


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
    "command, config", [("exact", TINY), ("asymptotic", ANCHOR)], ids=["exact", "asymptotic"]
)
def test_non_convergence_reports_last_delta(tmp_path, capsys, command, config):
    code, doc = _run(tmp_path, command, config, "--max-levels", "0")
    assert code == 3 and doc is None
    assert "last delta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config", [("exact", TINY), ("asymptotic", ANCHOR)], ids=["exact", "asymptotic"]
)
def test_zero_budget_exits_4(tmp_path, capsys, command, config):
    code, doc = _run(tmp_path, command, config, "--budget", "0")
    assert code == 4 and doc is None
    assert "budget" in capsys.readouterr().err
