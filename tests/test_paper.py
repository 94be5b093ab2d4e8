"""The paper's claims, as the README's ledger states them: one test for each
claim that has evidence today.  Each runs the command the ledger names on
the catalog documents and asserts exactly that evidence, nothing beyond it.
The claims with no evidence yet (not isometric, varying curvature,
isospectral potentials) have no test.
"""

from __future__ import annotations

import json

import pytest

from sunada.cli import run

# catalog name -> (subgroup U, subgroup V, genus of both quotients)
PAIRS = {"genus2": ("U", "V", 2), "genus3": ("U1", "U2", 3)}


@pytest.fixture(params=PAIRS)
def pair(request, tmp_path):
    path = str(tmp_path / f"{request.param}.json")
    assert run(["catalog", request.param, "--out", path]) == 0
    return (path, *PAIRS[request.param])


def _output(capsys, argv: list[str]) -> dict:
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_genus_two_and_three_sunada_pairs_exist(pair, capsys):
    """Exact: equal class intersection profiles, and V is off U's conjugation orbit."""
    path, u, v, _ = pair
    verdict = _output(capsys, ["verify", path, "--U", u, "--V", v])
    assert all(c["count_u"] == c["count_v"] for c in verdict["classes"])
    assert verdict["gassmann"] is True
    assert verdict["conjugator"] is None
    assert verdict["is_sunada_triple"] is True


def test_quotients_have_genus_two_and_three(pair, capsys):
    """Exact: both quotients are smooth, with the Euler characteristic and
    genus of the catalog name."""
    path, u, v, genus = pair
    for sub in (u, v):
        report = _output(capsys, ["report", path, "--U", sub])
        assert report["smooth"] is True
        assert report["cone_points"] == []
        assert report["chi_top"] == {"num": 2 - 2 * genus, "den": 1}
        assert report["genus"] == genus


def test_schreier_graphs_are_isospectral(pair, capsys):
    """Float within 1e-9, and only for the Schreier coset graphs of U and V,
    not for the surfaces."""
    path, u, v, _ = pair
    eu, ev = (_output(capsys, ["spectrum", path, "--U", sub])["eigenvalues"]
              for sub in (u, v))
    assert len(eu) == len(ev)
    assert max(abs(a - b) for a, b in zip(eu, ev)) <= 1e-9
