"""Every domcert name the benchmark scripts read resolves in the package.

The scripts under `perfbench/` are read as source (never imported or run), so
deleting or renaming a public name they use fails here, and not only as a
failed benchmark run or a per-layer metric stuck at zero. The tracer's list
of `verify` suites must be the package's, in the same order.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import domcert
from domcert.verify import SUITE_NAMES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPAN = re.compile(r"([a-z_]+)\.([A-Za-z_]\w*)")


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))}


def _tracer_constant(tracer: ast.Module, name: str) -> tuple[str, ...]:
    for node in tracer.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py binds no {name}")


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name) or (
        importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_package_attributes_and_imports_resolve():
    attributes, imports = set(), set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "domcert":
                    attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "domcert":
                imports.update((node.module, alias.name) for alias in node.names)
    assert attributes and imports
    assert sorted(name for name in attributes if not hasattr(domcert, name)) == []
    assert sorted(pair for pair in imports if not _resolves(*pair)) == []


def test_span_names_are_public_functions_of_their_layer():
    trees = _trees()
    layers = _tracer_constant(trees["tracer.py"], "LAYERS")
    spans = {
        match.groups()
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for match in [SPAN.fullmatch(node.value)]
        if match and match.group(1) in layers
    }
    assert ("bound_engine", "dominate_layer") in spans
    missing = []
    for layer, attr in sorted(spans):
        obj = getattr(importlib.import_module(f"domcert.{layer}"), attr, None)
        if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != f"domcert.{layer}":
            missing.append(f"{layer}.{attr}")
    assert missing == []


def test_traced_suites_are_the_package_suites():
    # A renamed _suite_* function renames its suite; the verify workload
    # would only report the old name's criterion as missing.
    assert _tracer_constant(_trees()["tracer.py"], "SUITES") == SUITE_NAMES
