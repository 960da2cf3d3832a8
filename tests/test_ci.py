"""The CI workflow parses and installs what the package declares."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _name(requirement: str) -> str:
    """The normalized distribution name of a requirement such as ``numpy>=1.23``."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9_.-]+", requirement).group()).lower()


def test_workflow_pins_every_declared_dependency():
    yaml = pytest.importorskip("yaml")
    tomllib = pytest.importorskip("tomllib")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    (install,) = [step["run"] for job in workflow["jobs"].values() for step in job["steps"]
                  if step.get("name") == "Install dependencies"]
    pinned = {_name(token) for token in install.split() if "==" in token}
    declared = {_name(req) for req in
                project["dependencies"] + project["optional-dependencies"]["test"]}
    assert declared - pinned == set()
