"""Every name a sievesim module exports through __all__ must exist on it,
so deleting a function without dropping its export fails here, and must be
used by the package itself, so an export that only tests call fails too;
the settable surface (ExperimentConfig fields and CLI options) is pinned,
so a new setting fails here until it is added on purpose; the runners
have one grid path, the renewal solver, and one writer of the mean and KS
summary keys, _summarize; the harness writes its summaries and never reads
them back; the grids module leaves the laws of W to distributions;
importing the CLI must not load scipy's integration stack, which only the
appendix uses, and a renewal solve must not load scipy's linear algebra."""

import argparse
import ast
import dataclasses
import glob
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import sievesim
from sievesim import cli, harness
from sievesim.distributions import WLaw

MODULES = [m.name for m in pkgutil.iter_modules(sievesim.__path__, "sievesim.")]


def _package_references(pattern: str = "*.py") -> set:
    """Every identifier the package's code (the modules matching pattern)
    reads, imports or accesses as an attribute; the names that def/class
    statements bind and the strings of __all__ are not among them."""
    refs = set()
    for path in glob.glob(os.path.join(os.path.dirname(sievesim.__file__), pattern)):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_all_names_used_by_the_package():
    refs = _package_references()
    unused = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(name), "__all__", ())
              if n not in refs]
    assert not unused, f"exported but used by no code in the package: {unused}"


def test_runners_have_one_grid_path():
    # the runners read U and V from the renewal solver only; the Monte Carlo
    # grid stays in renewal_numerics as the tests' oracle
    mc_grid = {"estimate_V", "estimate_U", "_count_grid_mc", "_GRID_REPLICAS"}
    assert not mc_grid & _package_references("harness.py")
    assert "renewal_grids" in _package_references("harness.py")


def test_summary_keys_have_one_writer():
    # mean(...) and ks(...) summary keys are formatted in _summarize only, so
    # a runner that writes them by hand again fails here
    key = re.compile(r"\b(mean|ks)\(")

    def literals(node):
        return {n for n in ast.walk(node)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and key.search(n.value)}

    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    (helper,) = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_summarize"]
    assert literals(helper) and literals(tree) == literals(helper)


def test_modules_found():
    assert "sievesim.distributions" in MODULES


CONFIG_FIELDS = {"params", "log_n_list", "j_list", "u_list", "replicas", "seed",
                 "workers"}

CLI_OPTIONS = {"-h", "--help", "--config", "--alpha", "--c", "--kappa", "--case",
               "--log-n", "--j", "--u", "--replicas", "--seed", "--workers", "--out",
               "--format"}


def test_config_fields_pinned():
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert fields == CONFIG_FIELDS


def test_cli_options_pinned():
    parser = cli._parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli._RUNNERS)
    for name, sub in subparsers.choices.items():
        options = {s for action in sub._actions for s in action.option_strings}
        assert options == CLI_OPTIONS, name


def test_summary_is_written_never_read():
    # every X.summary in the harness outside emit is the target of a
    # subscript store, so no check reads its value back out of the summary
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    stores = {id(n.value) for n in ast.walk(tree)
              if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)}
    reads = [n.lineno for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name != "emit"
             for n in ast.walk(f)
             if isinstance(n, ast.Attribute) and n.attr == "summary" and id(n) not in stores]
    assert not reads, f"report.summary read at harness.py lines {reads}"


def test_renewal_numerics_names_no_law():
    # the laws of W, and the case split over them, live in distributions
    assert not {"WLaw", *WLaw.__members__} & _package_references("renewal_numerics.py")


def _modules_loaded_after(code: str, prefix: str) -> str:
    """The sorted list of modules under prefix that a fresh interpreter has
    loaded after running code, as printed."""
    src = os.path.dirname(os.path.dirname(sievesim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += f"; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_scipy_integrate_unloaded():
    assert _modules_loaded_after("import sys, sievesim.cli", "scipy.integrate") == "[]"


def test_renewal_solve_leaves_scipy_linalg_unloaded():
    # the Zolotarev CDF at alpha != 1/2 takes its rule from numpy
    code = ("import sys; from sievesim import cli, harness; "
            "from sievesim.distributions import ModelParams; "
            "cli._RUNNERS['renewal'](harness.ExperimentConfig("
            "params=ModelParams(alpha=0.8), log_n_list=(25, 50), j_list=(2, 2)))")
    assert _modules_loaded_after(code, "scipy.linalg") == "[]"
