"""Shared fixtures: catalog entries and small symmetric groups."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from sunada import Perm, catalog_entry, generate_group

# Subprocesses started by the tests (``python -m sunada``) import the same
# package as the tests do, also from a checkout that is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Echo the acceptance verdict lines after the run so they stay visible
    # under output capture.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
