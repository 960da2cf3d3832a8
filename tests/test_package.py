"""The public surface of the package."""

from __future__ import annotations

import importlib
import pkgutil

import growthdist


def test_every_exported_name_resolves():
    modules = [growthdist] + [
        importlib.import_module(f"growthdist.{info.name}")
        for info in pkgutil.iter_modules(growthdist.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
