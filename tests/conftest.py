"""Shared fixtures (catalog entries and small symmetric groups), the whole
and trivial subgroup helpers and the element list of a group."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from sunada import (Element, FiniteGroup, Perm, Subgroup, catalog_entry, generate_group,
                    parse_cycles)

# Subprocesses started by the tests (``python -m sunada``) import the same
# package as the tests do, also from a checkout that is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def elements(group: FiniteGroup) -> list[Element]:
    """Every element of the group in index order, each built from its key."""
    return [group.element(i) for i in range(group.order)]


@pytest.fixture(scope="session")
def genus2():
    return catalog_entry("genus2")


@pytest.fixture(scope="session")
def genus3():
    return catalog_entry("genus3")


@pytest.fixture(scope="session")
def orbifold_h():
    return catalog_entry("orbifold-h")


@pytest.fixture(scope="session")
def s3():
    return generate_group([Perm((1, 0, 2)), Perm((1, 2, 0))])


@pytest.fixture(scope="session")
def s4():
    return generate_group([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])


@pytest.fixture(scope="session")
def psl32():
    """PSL(3,2), order 168, on the 7 points of the Fano plane."""
    return generate_group([parse_cycles("(1,5)(2,6)", 7), parse_cycles("(0,3,1)(2,4,5)", 7)])


@pytest.fixture(scope="session")
def psl211():
    """PSL(2,11), order 660, on 11 points."""
    return generate_group([parse_cycles("(1,9)(2,3)(4,8)(5,6)", 11),
                           parse_cycles("(0,1,10)(2,4,9)(5,7,8)", 11)])


@pytest.fixture(scope="session")
def d257():
    """The dihedral group of degree 257, order 514: above degree 256 its
    elements are keyed by image tuples, not bytes."""
    n = 257
    return generate_group([parse_cycles("(" + ",".join(map(str, range(n))) + ")", n),
                           parse_cycles("".join(f"({i},{n - i})" for i in range(1, (n + 1) // 2)),
                                        n)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Echo the acceptance verdict lines after the run so they stay visible
    # under output capture.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
