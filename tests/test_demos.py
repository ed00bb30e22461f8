"""Every name a demo script imports from reductionlab exists, and every call
it makes to one of them fits that callable's signature.

Running the demos takes seconds each; parsing them is enough to stop a
deletion in the package from breaking a narrative script unnoticed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reductionlab"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("reductionlab"):
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(_package_imports(path))
    assert imports, f"{path.name} imports nothing from reductionlab"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_calls_fit_their_signatures(path):
    # a keyword the package no longer takes, or one positional argument too
    # many, would only fail when the demo runs
    names = {}
    for module, name in _package_imports(path):
        if name is not None:
            names[name] = getattr(importlib.import_module(module), name)
    checked = 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in names):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            continue
        sig = inspect.signature(names[node.func.id])
        try:
            sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{path.name}:{node.lineno} {node.func.id}: {exc}") from None
        checked += 1
    assert checked, f"{path.name} calls nothing it imports from reductionlab"
