"""What ``perfbench/`` reaches in the package by name.

The benchmark imports some names that no package code calls, and its
tracer (``--trace 1``) wraps the functions listed in ``tracer.LAYERS``.
These tests read both from the source, so that removing such a name fails
here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# methods the benchmark calls on package objects that no package code calls
METHODS = (("ClassGroupData", "add", "cg.add("),
           ("IntMat", "__matmul__", " @ "),
           ("IntMat", "is_unimodular", ".is_unimodular("))


def _sources():
    return {path.name: path.read_text() for path in sorted(PERFBENCH.glob("*.py"))}


def _imports():
    """(file, module, name) of every ``from toricfsig... import name``."""
    out = []
    for name, source in _sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toricfsig"):
                out += [(name, node.module, alias.name) for alias in node.names]
    return out


def _layers():
    """``tracer.LAYERS``, read without importing the tracer."""
    for node in ast.parse(_sources()["tracer.py"]).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _resolves(module, name):
    """Whether ``from module import name`` succeeds: an attribute of the
    module, or one of its submodules."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_benchmark_imports_only_names_the_package_has():
    imports = _imports()
    assert {file for file, _, _ in imports} >= {"checks.py", "workloads.py", "setup_child.py"}
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not _resolves(module, name)]
    assert missing == []


def test_every_traced_layer_function_exists():
    layers = _layers()
    assert "frobenius" in layers and "cli" in layers
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"toricfsig.{layer}"), name)]
    assert missing == []


@pytest.mark.parametrize("cls, method, call", METHODS, ids=[f"{c}.{m}" for c, m, _ in METHODS])
def test_methods_the_benchmark_calls_exist(cls, method, call):
    assert any(call in source for source in _sources().values())
    assert callable(getattr(getattr(importlib.import_module("toricfsig"), cls), method, None))
