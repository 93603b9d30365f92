"""The public names: every `__all__` entry of the package and its modules."""

import importlib
import pkgutil

import pytest

import cadorder

MODULES = ["cadorder"] + [
    f"cadorder.{m.name}" for m in pkgutil.iter_modules(cadorder.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark's tracer looks up every exported callable, so a stale
    # entry would crash a traced run
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

