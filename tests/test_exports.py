"""Every name that gclkit or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import gclkit

MODULES = ["gclkit"] + [
    f"gclkit.{info.name}"
    for info in pkgutil.iter_modules(gclkit.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}"
    exec(f"from {name} import *", {})
