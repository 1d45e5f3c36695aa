"""Every name a sievesim module exports through __all__ must exist on it,
so deleting a function without dropping its export fails here; importing
the CLI must not load scipy's integration stack, which only the appendix
uses."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(sievesim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, sievesim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
