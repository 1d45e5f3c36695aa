"""Every name a sievesim module exports through __all__ must exist on it,
so deleting a function without dropping its export fails here."""

import importlib
import pkgutil

import pytest

import sievesim

MODULES = [m.name for m in pkgutil.iter_modules(sievesim.__path__, "sievesim.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_modules_found():
    assert "sievesim.distributions" in MODULES
