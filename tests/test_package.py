"""The package surface: ``sunada.__all__`` is the package's lazy table, the
one list of public names, which no module repeats; each of its names has a
caller in the package or the benchmark; every name the benchmark in
``perfbench/`` reaches by name resolves; the modules it traces load with the
CLI; one pass of each benchmark workload passes its own checks; and the
README's examples print what they say and its command lines exit 0."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sunada
import sunada.cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


def test_package_table_is_the_one_declaration():
    # No module assigns ``__all__``.  Each name the table gives a module is
    # bound there by ``def``, ``class`` or a top-level assignment, not by an
    # import, whose first read would execute the module it came from instead.
    source = ROOT / "src" / "sunada"
    modules = list(sunada._EXPORTS)
    assert sorted(modules) == sorted(path.stem for path in source.glob("*.py")
                                     if path.stem not in ("__init__", "__main__", "cli"))
    for path in sorted(source.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Name)
                    and node.id == "__all__" and isinstance(node.ctx, ast.Store)], path.stem
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update(name.id for name in ast.walk(target)
                                   if isinstance(name, ast.Name))
        missing = set(sunada._EXPORTS.get(path.stem, ())) - defined
        assert not missing, (path.stem, sorted(missing))
    declared = [name for module in modules for name in sunada._EXPORTS[module]]
    assert sunada.__all__ == declared
    assert len(set(declared)) == len(declared)
    for name in declared:
        assert hasattr(sunada, name), name
    assert set(sunada.__all__) | set(modules) <= set(dir(sunada))
    with pytest.raises(AttributeError, match="no_such_name"):
        sunada.no_such_name
    namespace = {}
    exec("from sunada import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sunada.__all__)


def test_every_public_name_has_a_caller():
    """A public name that neither the package nor the benchmark reads is code
    that only tests run.  A read is a load of the name, or of an attribute
    by that name, or in the benchmark, which looks names up by string
    (``tracing.TRACED``), a string naming it.  Its own ``def`` or ``class``
    and its string in the package's table are not reads."""
    read = set()
    for path in sorted((ROOT / "src" / "sunada").glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (path.parent == PERFBENCH and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.update(node.value.split("."))
    assert sorted(set(sunada.__all__) - read) == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_attributes_resolve():
    tracing = _load_tracing()
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        module = importlib.import_module(module_name)
        assert functools.reduce(getattr, attr.split("."), module) is not None, (module_name, attr)


def test_traced_modules_load_with_the_cli():
    """The traced bench imports ``sunada`` and ``sunada.cli`` and then reads
    every traced module from ``sys.modules``; the package itself loads no
    submodule, so ``cli``'s own imports must load them all."""
    tracing = _load_tracing()
    traced = sorted({module_name for module_name, _, _ in tracing.TRACED})
    script = ("import sys, sunada, sunada.cli\n"
              f"missing = [m for m in {traced!r} if m not in sys.modules]\n"
              "assert not missing, missing\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


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


_README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
    encoding="utf-8"), re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", _README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(_README_BLOCKS))])
def test_readme_example_prints_its_comments(block):
    """Each ``python`` block of the README, run alone, prints one line per
    ``print(...)`` line, equal to that line's trailing ``# ...`` comment."""
    expected = [line.rpartition("# ")[2] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


def test_readme_command_lines_exit_zero(tmp_path):
    """Each line of the README's "Command line" block exits 0, run in order
    in one directory with ``sunada`` as ``python -m sunada``: the console
    script is not installed where the tests run from a checkout."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line\n")[1]
    lines = re.search(r"^```sh\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[1].splitlines()
    assert lines
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    define = f'sunada() {{ "{sys.executable}" -m sunada "$@"; }}\n'
    for line in lines:
        run = subprocess.run(define + line, shell=True, cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (line, run.stderr)
