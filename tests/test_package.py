"""The package surface: ``sunada.__all__`` is the modules' ``__all__`` lists,
and every name the benchmark in ``perfbench/`` reaches by name resolves."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import sunada

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("algebra", "catalog", "covering", "gassmann", "schreier", "search", "spectra",
           "specfile")


def test_package_exports_every_module_all_once():
    declared = [name for module in MODULES
                for name in importlib.import_module(f"sunada.{module}").__all__]
    assert sunada.__all__ == declared
    assert len(set(declared)) == len(declared)
    for name in declared:
        assert hasattr(sunada, name), name


def test_traced_attributes_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        module = importlib.import_module(module_name)
        assert functools.reduce(getattr, attr.split("."), module) is not None, (module_name, attr)


def test_workload_reads_are_exported():
    """Every ``s.<name>`` or ``sunada.<name>`` in the workloads, where both
    names are the package, is a public name, apart from the ``cli`` module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in ("s", "sunada")
             and node.attr != "cli" and not node.attr.startswith("__")}
    assert reads and reads <= set(sunada.__all__), sorted(reads - set(sunada.__all__))
