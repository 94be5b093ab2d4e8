"""The package surface: ``sunada.__all__`` is the modules' ``__all__`` lists,
every name the benchmark in ``perfbench/`` reaches by name resolves, and one
pass of each benchmark workload passes its own checks."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sunada
import sunada.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))
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


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_workload_pass_meets_its_checks(name, tmp_path):
    """The benchmark also reads attributes of returned values (``len`` of a
    subgroup, a report's indices), which no name check above can see."""
    workload = workloads.IN_PROCESS[name](sunada, 1, tmp_path)
    tally = workloads.Tally()
    if workload.setup_every:
        workload.setup(tally)
    workload.run_pass(tally)
    workloads.layer_probe(sunada, tally, tmp_path)
    assert tally.attempted > 0 and tally.failed == 0, tally.errors
