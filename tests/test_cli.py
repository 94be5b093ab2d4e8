"""Command line behavior: output shapes, exit codes, pipelines, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from sunada import (ResourceError, adjacency_matrix, eigenvalues_symmetric, is_sunada_triple,
                    load_text, schreier_graph)
from sunada import spectra
from sunada.cli import run
from conftest import trivial_subgroup


@pytest.fixture()
def genus2_doc(tmp_path, capsys):
    assert run(["catalog", "genus2"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "genus2.json"
    path.write_text(text)
    return path


@pytest.fixture()
def orbifold_doc(tmp_path, capsys):
    assert run(["catalog", "orbifold-h"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "orbifold.json"
    path.write_text(text)
    return path


# -------------------------------------------------------------------- catalog


def test_catalog_emits_parseable_document(capsys):
    assert run(["catalog", "genus2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "permutation"
    assert doc["degree"] == 12
    assert set(doc["subgroups"]) == {"U", "V"}


def test_catalog_output_is_byte_stable(capsys):
    run(["catalog", "genus3"])
    first = capsys.readouterr().out
    run(["catalog", "genus3"])
    second = capsys.readouterr().out
    assert first == second


# (catalog name, subgroup U, subgroup V, search order) of each bundled document
_GOLDEN_DOCUMENTS = {
    "genus2": ("U", "V", "8"),
    "genus3": ("U1", "U2", "8"),
    "orbifold-h": ("U1", "U2", "4"),
}

# sha256 of stdout per (document, command).  ``spectrum`` is left out: its
# ``residual`` is float noise that depends on the solver.
_GOLDEN_DIGESTS = {
    ("genus2", "catalog"): "017789cefac902ae28254c9f31264a041ad9a2a119928000a3ef0d7b14182612",
    ("genus2", "verify"): "7a2b29dbb1e47bc544c730d92ab97973ac2fc56cf60a28da7d2ac83836b50685",
    ("genus2", "report U"): "ae3569d1ea5123e17ff131dba274add3405c0668f8a4bd98b464e1282db9d1d9",
    ("genus2", "report V"): "ae3569d1ea5123e17ff131dba274add3405c0668f8a4bd98b464e1282db9d1d9",
    ("genus2", "graph dot"): "c0deb77659542939dd95a196542170c4d76d8a22d99caa44dac5e95590dcee72",
    ("genus2", "graph json"): "067f335938e4540453f922d0bc23d02fc651cebd297d3d0220b9d0890b515d1b",
    ("genus2", "search"): "83be66ee378d04fa8261c5df130045a7547126e37941fddd99287cf34d2e8064",
    ("genus2", "search no-dedupe"):
        "4f8ee022b7631c60ff81f7a21c0f7ed92e96dcbc1fe87a779d8702e8978ec1f2",
    ("genus2", "search smooth"): "83be66ee378d04fa8261c5df130045a7547126e37941fddd99287cf34d2e8064",
    ("genus3", "catalog"): "cb06481a499af414ba073830b5bd8f702a0f95cae53b68af54376791f6064b8d",
    ("genus3", "verify"): "ce072f75a41e94b0311181fc7ba13bd95a9720b554055d40ab8c774d700d03e3",
    ("genus3", "report U"): "0f2def0f1fc643e84d2b43768bc8f69d863c8f165261af68ddce3ddb9edfcf24",
    ("genus3", "report V"): "0f2def0f1fc643e84d2b43768bc8f69d863c8f165261af68ddce3ddb9edfcf24",
    ("genus3", "graph dot"): "d0b2ffe0d2267ec187cc729a305f8e61ee34852b8d7aa932e640277c1fefb6ac",
    ("genus3", "graph json"): "f49ece9a142daf6c68e74b77d670e73d0063563c39ad3c6770acf05fe26a57f3",
    ("genus3", "search"): "93e62d3613409a904e22b28078f47955bec51f3a2b332d3692c8bf38cb60e1b7",
    ("genus3", "search no-dedupe"):
        "43b1498697283297b51d7b199484e856a62e10f2a77b772e99a3011617e3068c",
    ("orbifold-h", "catalog"): "9c7586ed4cb3f50ae0f500b7638dfe31f2121e7cd563269d943a08421b547a4d",
    ("orbifold-h", "verify"): "76d50f30dc5e5205d2ab225ed6460a3550ebea119018b429ca4fe31df616f06d",
    ("orbifold-h", "report U"): "b7cf19e9909379822ad6a2d39f506ced8b70e7a5150a977792b4abf967888766",
    ("orbifold-h", "report V"): "b7cf19e9909379822ad6a2d39f506ced8b70e7a5150a977792b4abf967888766",
    ("orbifold-h", "graph dot"): "855e89fabb63a333588dd4ba54555636acf7749ba22c63452524c40cb540b556",
    ("orbifold-h", "graph json"):
        "c9d4710aca9d3f4874c6178fdc28938351433b7b207b52f2cf39291c4b7e0f35",
    ("orbifold-h", "search"): "644f507ecf7555528a5a3614dc90ded1bddce5ff724fb3797609b4829bf47a8e",
    ("orbifold-h", "search no-dedupe"):
        "b4f570cb93dfcc7aeea1f0d4033212e1394516a58e8c5f68c27113bb9d16b428",
}


def _golden_argv(name: str, command: str, path: str) -> list[str]:
    u, v, order = _GOLDEN_DOCUMENTS[name]
    return {
        "catalog": ["catalog", name],
        "verify": ["verify", path, "--U", u, "--V", v],
        "report U": ["report", path, "--U", u],
        "report V": ["report", path, "--U", v],
        "graph dot": ["graph", path, "--U", u, "--format", "dot"],
        "graph json": ["graph", path, "--U", u, "--format", "json"],
        "search": ["search", path, "--order", order],
        "search no-dedupe": ["search", path, "--order", order, "--no-dedupe"],
        "search smooth": ["search", path, "--order", order, "--smooth"],
    }[command]


@pytest.mark.parametrize("name, command", sorted(_GOLDEN_DIGESTS))
def test_cli_output_matches_golden_digest(tmp_path, capsys, name, command):
    assert run(["catalog", name]) == 0
    path = tmp_path / f"{name}.json"
    path.write_text(capsys.readouterr().out)
    assert run(_golden_argv(name, command, str(path))) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _GOLDEN_DIGESTS[name, command]


# S4 on four points with its generators listed out of sorted label order; the
# catalog documents all list theirs as a, b, c.
_UNSORTED_LABELS_DOCUMENT = {
    "kind": "permutation",
    "degree": 4,
    "generators": {"b": "(0,1)", "a": "(0,1,2,3)"},
    "subgroups": {"U": {"generators": ["b"]}},
}

# sha256 of stdout for ``graph``, and of the JSON eigenvalue list alone for
# ``spectrum`` (its residual is the solver's noise).
_UNSORTED_LABELS_DIGESTS = {
    "graph dot": "280ee0581eb77d6249922ed813cc43bfac437f372d7613f7c551056cf33258ba",
    "graph json": "b715a93baaa3f1834a891b5a18e4b9cf098bce801e8455474f89223213f9eb6c",
    "spectrum": "b5d6ece6b7e339815d676fedfb619036502c107afdfb878f91e33d7c30bc41ef",
}


@pytest.mark.parametrize("command", sorted(_UNSORTED_LABELS_DIGESTS))
def test_unsorted_labels_output_matches_golden_digest(tmp_path, capsys, command):
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(_UNSORTED_LABELS_DOCUMENT))
    argv = {
        "graph dot": ["graph", str(path), "--U", "U", "--format", "dot"],
        "graph json": ["graph", str(path), "--U", "U", "--format", "json"],
        "spectrum": ["spectrum", str(path), "--U", "U"],
    }[command]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if command == "spectrum":
        out = json.dumps(json.loads(out)["eigenvalues"])
    assert hashlib.sha256(out.encode()).hexdigest() == _UNSORTED_LABELS_DIGESTS[command]


def test_catalog_rejects_unknown_name(capsys):
    assert run(["catalog", "bogus"]) == 2
    assert "(known: genus2, genus3, orbifold-h)" in capsys.readouterr().err


# --------------------------------------------------------------------- verify


def test_verify_sunada_pair_exits_zero(genus2_doc, capsys):
    assert run(["verify", str(genus2_doc), "--U", "U", "--V", "V"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["gassmann"] is True
    assert verdict["conjugator"] is None
    assert verdict["is_sunada_triple"] is True


def test_verify_conjugate_pair_exits_one(genus2_doc, capsys):
    assert run(["verify", str(genus2_doc), "--U", "U", "--V", "U"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_sunada_triple"] is False
    assert verdict["conjugator"]["index"] is not None


def test_verify_reads_stdin(genus2_doc, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(genus2_doc.read_text()))
    assert run(["verify", "-", "--U", "U", "--V", "V"]) == 0
    assert json.loads(capsys.readouterr().out)["is_sunada_triple"] is True


def test_verify_unknown_subgroup_exits_two(genus2_doc, capsys):
    assert run(["verify", str(genus2_doc), "--U", "U", "--V", "nope"]) == 2
    assert "unknown subgroup" in capsys.readouterr().err


# --------------------------------------------------------------------- report


def test_report_genus_two(genus2_doc, capsys):
    assert run(["report", str(genus2_doc), "--U", "U"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chi_orb"] == {"num": -2, "den": 1}
    assert report["genus"] == 2
    assert report["smooth"] is True


def test_report_orbifold(orbifold_doc, capsys):
    assert run(["report", str(orbifold_doc), "--U", "U1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["smooth"] is False
    assert report["chi_orb"] == {"num": -2, "den": 1}
    assert report["cone_points"] == [
        {"label": "a", "order": 2, "multiplicity": 2},
        {"label": "c", "order": 2, "multiplicity": 2},
    ]


def test_report_with_polygon_override(genus2_doc, tmp_path, capsys):
    override = tmp_path / "polygon.json"
    override.write_text(json.dumps({
        "edge_pairs": 2,
        "cycles": [
            {"label": "a", "word": "a"},
            {"label": "b", "word": "b"},
            {"label": "r", "word": "a b c"},
        ],
    }))
    assert run(["report", str(genus2_doc), "--U", "U", "--polygon", str(override)]) == 0
    report = json.loads(capsys.readouterr().out)
    # a b c is the identity, so the third cycle has order 1
    assert [c["order"] for c in report["cycles"]] == [3, 3, 1]


def test_report_polygon_file_cycle_without_label_exits_two(genus2_doc, tmp_path, capsys):
    override = tmp_path / "polygon.json"
    override.write_text(json.dumps({"edge_pairs": 2, "cycles": [{"word": "a"}]}))
    assert run(["report", str(genus2_doc), "--U", "U", "--polygon", str(override)]) == 2
    assert "'label'" in capsys.readouterr().err


def test_report_without_any_polygon_exits_two(tmp_path, capsys):
    doc = {
        "kind": "permutation",
        "degree": 3,
        "generators": {"t": "(0,1)", "r": "(0,1,2)"},
        "subgroups": {"T": {"generators": ["t"]}},
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    assert run(["report", str(path), "--U", "T"]) == 2
    assert "polygon" in capsys.readouterr().err


# ---------------------------------------------------------------------- graph


def test_graph_dot_output(genus2_doc, capsys):
    assert run(["graph", str(genus2_doc), "--U", "U"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph schreier {")
    assert sum(1 for line in dot.splitlines() if " -> " in line) == 36


def test_graph_json_output(genus2_doc, capsys):
    assert run(["graph", str(genus2_doc), "--U", "V", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 12
    assert payload["labels"] == ["a", "b", "c"]
    assert len(payload["arcs"]) == 36


# ------------------------------------------------------------------- spectrum


def test_spectrum_output(genus2_doc, capsys):
    assert run(["spectrum", str(genus2_doc), "--U", "U"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 12
    assert len(payload["eigenvalues"]) == 12
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])


def test_spectrum_pairs_agree(genus2_doc, capsys):
    run(["spectrum", str(genus2_doc), "--U", "U"])
    first = json.loads(capsys.readouterr().out)
    run(["spectrum", str(genus2_doc), "--U", "V"])
    second = json.loads(capsys.readouterr().out)
    assert first["eigenvalues"] == second["eigenvalues"]


def test_spectrum_prints_an_exact_zero_eigenvalue(tmp_path, capsys):
    """S5 over <(0,1,2,3,4)>, index 24: sympy finds the adjacency matrix
    singular, and each zero eigenvalue prints as 0.0, not as solver noise."""
    sympy = pytest.importorskip("sympy")
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({
        "kind": "permutation", "degree": 5,
        "generators": {"a": "(0,1,2,3,4)", "b": "(0,1)"},
        "subgroups": {"U": {"generators": ["a"]}},
    }))
    assert run(["graph", str(path), "--U", "U", "--format", "json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    n = graph["vertices"]
    adjacency = sympy.zeros(n, n)
    for arc in graph["arcs"]:
        adjacency[arc["src"], arc["dst"]] += 1
        adjacency[arc["dst"], arc["src"]] += 1
    nullity = n - adjacency.rank()
    assert (n, nullity) == (24, 1)
    assert run(["spectrum", str(path), "--U", "U"]) == 0
    eigenvalues = json.loads(capsys.readouterr().out)["eigenvalues"]
    assert eigenvalues.count(0.0) == nullity
    assert all(v == 0.0 or abs(v) > 1e-6 for v in eigenvalues)


def test_spectrum_above_the_pure_bound_goes_through_numpy(tmp_path, capsys, monkeypatch):
    """S5 over <(0,1)>, index 60, is past ``_PURE_DIMENSION``: the command
    prints the eigenvalues of ``eigenvalues_symmetric``, and Jacobi never runs."""
    text = json.dumps({
        "kind": "permutation", "degree": 5,
        "generators": {"a": "(0,1,2,3,4)", "b": "(0,1)"},
        "subgroups": {"U": {"generators": ["b"]}},
    })
    path = tmp_path / "s5.json"
    path.write_text(text)
    spec = load_text(text)
    graph = schreier_graph(spec.group, spec.subgroups["U"], list(spec.named_elements.items()))
    assert graph.vertex_count == 60 > spectra._PURE_DIMENSION

    def no_jacobi(rows):
        raise AssertionError("Jacobi ran above the bound")

    monkeypatch.setattr(spectra, "_jacobi", no_jacobi)
    assert run(["spectrum", str(path), "--U", "U"]) == 0
    expected = eigenvalues_symmetric(adjacency_matrix(graph)).to_json_dict()
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == expected["eigenvalues"]


def test_spectrum_above_the_dense_bound_exits_two(tmp_path, capsys):
    """S8 over the trivial subgroup has 40,320 cosets, past the dense bound:
    a usage error naming the dimension and the bound, not numpy's."""
    path = tmp_path / "s8.json"
    path.write_text(json.dumps({
        "kind": "permutation", "degree": 8,
        "generators": {"a": "(0,1,2,3,4,5,6,7)", "b": "(0,1)"},
        "subgroups": {"U": {"elements": [""]}},
    }))
    assert run(["spectrum", str(path), "--U", "U"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sunada: error: a dense spectrum of dimension 40320 exceeds the bound")
    assert "Traceback" not in err


def test_spectrum_unreachable_tolerance_exits_three(genus2_doc, capsys):
    assert run(["spectrum", str(genus2_doc), "--U", "U", "--tol", "1e-300"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_spectrum_nonpositive_tolerance_exits_two(genus2_doc, capsys):
    assert run(["spectrum", str(genus2_doc), "--U", "U", "--tol", "0"]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_spectrum_nonfinite_tolerance_exits_two(genus2_doc, capsys, tol):
    # An infinite tolerance would accept any residual.
    assert run(["spectrum", str(genus2_doc), "--U", "U", "--tol", tol]) == 2
    assert "tolerance" in capsys.readouterr().err


# --------------------------------------------------------------------- search


def test_search_streams_json_lines(orbifold_doc, capsys):
    assert run(["search", str(orbifold_doc), "--order", "4"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"u", "v", "report"}
        assert record["report"]["is_sunada_triple"] is True
        assert len(record["u"]) == 4


def test_search_no_dedupe_reports_at_least_as_many(orbifold_doc, capsys):
    run(["search", str(orbifold_doc), "--order", "4"])
    deduped = len(capsys.readouterr().out.splitlines())
    run(["search", str(orbifold_doc), "--order", "4", "--no-dedupe"])
    raw = len(capsys.readouterr().out.splitlines())
    assert raw >= deduped > 0


def test_search_smooth_filter(genus2_doc, capsys):
    assert run(["search", str(genus2_doc), "--order", "8", "--smooth"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines
    for line in lines:
        assert json.loads(line)["report"]["is_sunada_triple"] is True


def test_search_empty_result_is_success(tmp_path, capsys):
    doc = {
        "kind": "permutation",
        "degree": 3,
        "generators": {"t": "(0,1)", "r": "(0,1,2)"},
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    assert run(["search", str(path), "--order", "2"]) == 0
    assert capsys.readouterr().out == ""


def test_search_subgroup_cap_exits_two(orbifold_doc, capsys):
    assert run(["search", str(orbifold_doc), "--order", "4", "--max-subgroups", "1"]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("flag, value", [
    ("--order", "0"), ("--order", "-4"), ("--max-subgroups", "0"), ("--max-subgroups", "-1")])
def test_search_rejects_nonpositive_arguments(orbifold_doc, capsys, flag, value):
    argv = ["search", str(orbifold_doc), "--order", "4", flag, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"argument {flag}: must be at least 1, got {value}" in captured.err


def test_search_writes_each_pair_before_the_next_is_found(orbifold_doc, tmp_path,
                                                          monkeypatch, capsys):
    def first_pair_then_cap(group, config):
        u = v = trivial_subgroup(group)
        yield u, v, is_sunada_triple(group, u, v)
        raise ResourceError("subgroup enumeration exceeded max_subgroups")

    monkeypatch.setattr("sunada.search._sunada_pairs", first_pair_then_cap)
    target = tmp_path / "pairs.jsonl"
    assert run(["search", str(orbifold_doc), "--order", "4", "--out", str(target)]) == 2
    lines = target.read_text().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"u", "v", "report"}
    assert "max_subgroups" in capsys.readouterr().err


def test_search_cap_leaves_an_existing_out_file_as_it_was(orbifold_doc, tmp_path, capsys):
    target = tmp_path / "pairs.jsonl"
    target.write_text("earlier results\n")
    argv = ["search", str(orbifold_doc), "--order", "4", "--max-subgroups", "1",
            "--out", str(target)]
    assert run(argv) == 2
    assert "max_subgroups" in capsys.readouterr().err
    assert target.read_text() == "earlier results\n"


def test_search_out_file_matches_stdout(orbifold_doc, tmp_path, capsys):
    assert run(["search", str(orbifold_doc), "--order", "4"]) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "pairs.jsonl"
    assert run(["search", str(orbifold_doc), "--order", "4", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed


# ----------------------------------------------------------- files and errors


def test_out_writes_file_and_keeps_stdout_quiet(genus2_doc, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    assert run(["verify", str(genus2_doc), "--U", "U", "--V", "V", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["is_sunada_triple"] is True


def test_missing_file_exits_two(capsys):
    assert run(["verify", "/no/such/file.json", "--U", "U", "--V", "V"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_json_exits_two(genus2_doc, tmp_path, capsys):
    # Each text is tried both as the document and as a --polygon file.
    path = tmp_path / "broken.json"
    for text in (b"{]",
                 b"[" * 200_000,                                # too deep to decode
                 b'{"edge_pairs": 1' + b"0" * 5000 + b"}",      # past the digit limit
                 b"\xff\xfe\x00bad"):                           # not UTF-8 text
        path.write_bytes(text)
        assert run(["report", str(path), "--U", "U"]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert run(["report", str(genus2_doc), "--U", "U", "--polygon", str(path)]) == 2
        assert "invalid polygon JSON" in capsys.readouterr().err


def test_huge_degree_exits_two_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "permutation", "degree": 10**12,
                                "generators": {"a": "(0,1)"}}))
    assert run(["search", str(path), "--order", "2"]) == 2
    assert "exceeds the bound" in capsys.readouterr().err


def test_huge_modulus_closure_exits_two_quickly(tmp_path, capsys):
    # Each element holds residues of 13,288 bits, so the closure cap shrinks
    # to 10**6 * 64 // 13288 elements instead of running into gigabytes.
    path = tmp_path / "huge-modulus.json"
    path.write_text(json.dumps({"kind": "semidirect", "modulus": 10**4000 + 1,
                                "generators": {"a": [2, 1]}}))
    start = time.perf_counter()
    assert run(["search", str(path), "--order", "2"]) == 2
    assert time.perf_counter() - start < 5
    assert "element cap of 4816 at a 13288-bit modulus" in capsys.readouterr().err


# At degree 10**6 each listed element or word token costs a million-entry
# parse or product, so the document may list no more of them than the 16
# elements the closure cap allows there.
@pytest.mark.parametrize("subgroups, polygon", [
    ({"U": {"elements": [""] * 100}}, None),
    ({"U": {"generators": ["a " * 100]}}, None),
    ({}, {"edge_pairs": 1, "cycles": [{"label": "a", "word": "a^-1 " * 100}]}),
], ids=["element-list", "subgroup-word", "polygon-word"])
def test_long_document_at_huge_degree_exits_two_quickly(tmp_path, capsys, subgroups, polygon):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"kind": "permutation", "degree": 10**6,
                                "generators": {"a": "(0,1)"},
                                "subgroups": subgroups, "polygon": polygon}))
    start = time.perf_counter()
    assert run(["verify", str(path), "--U", "U", "--V", "U"]) == 2
    assert time.perf_counter() - start < 1
    assert "exceed the cap of 16 at degree 1000000" in capsys.readouterr().err


def test_no_arguments_exits_two(capsys):
    assert run([]) == 2


# The options each subcommand's help names.
_COMMAND_OPTIONS = {
    "verify": ("--U", "--V", "--out"),
    "report": ("--U", "--polygon", "--out"),
    "graph": ("--U", "--format", "--out"),
    "spectrum": ("--U", "--tol", "--out"),
    "search": ("--order", "--smooth", "--max-subgroups", "--no-dedupe", "--out"),
    "catalog": ("--out",),
}


def test_help_names_every_command_and_option(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in _COMMAND_OPTIONS), out
    for command, options in _COMMAND_OPTIONS.items():
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert all(option in out for option in options), (command, out)
    assert run(["bogus"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_handwritten_document_with_word_subgroups(tmp_path, capsys):
    doc = {
        "kind": "semidirect",
        "modulus": 8,
        "generators": {"a": [3, 2], "b": [7, 1], "c": [7, 2]},
        "subgroups": {
            "U1": {"generators": ["a b a b^-1", "b a b a^-1"]},
            "U2": {"elements": [[1, 0], [3, 4], [5, 4], [7, 0]]},
        },
        "polygon": {
            "edge_pairs": 3,
            "cycles": [
                {"label": "a", "word": "a"},
                {"label": "b", "word": "b"},
                {"label": "c", "word": "b^-1 a^-1"},
                {"label": "abc", "word": "a b b^-1 a^-1 a b"},
            ],
        },
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc))
    code = run(["verify", str(path), "--U", "U1", "--V", "U2"])
    out = capsys.readouterr().out
    verdict = json.loads(out)
    assert verdict["group_order"] == 32
    # the word subgroups land on a genuine order-4 subgroup pair
    assert verdict["subgroup_orders"] == [4, 4]
    assert code in (0, 1)


def test_console_pipeline_subprocess():
    pipeline = (
        f"{sys.executable} -m sunada catalog genus2 | "
        f"{sys.executable} -m sunada verify - --U U --V V"
    )
    proc = subprocess.run(pipeline, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["is_sunada_triple"] is True


def test_commands_on_small_graphs_leave_numpy_unloaded(tmp_path):
    # Neither numpy nor dataclasses, with the inspect it pulls in, nor
    # fractions, with decimal, belongs on the start-up path of every command.
    # ``spectrum`` solves a graph of at most 32 vertices without numpy.
    doc, verdict = tmp_path / "genus2.json", tmp_path / "verdict.json"
    spectrum = tmp_path / "spectrum.json"
    check = ("for name in ('numpy', 'dataclasses', 'inspect', 'fractions', 'decimal'):\n"
             "    assert name not in sys.modules, f'{name} loaded after {step}'\n")
    # ``import sunada`` loads no submodule, and a name loads only its owner.
    loaded = "sorted(m for m in sys.modules if m.startswith('sunada.'))"
    script = (
        "import sys\n"
        "import sunada\n"
        "step = 'import sunada'\n" + check +
        f"assert {loaded} == [], {loaded}\n"
        "from sunada import generate_group\n"
        f"assert {loaded} == ['sunada.algebra'], {loaded}\n"
        "from sunada.cli import run\n"
        f"assert run(['catalog', 'genus2', '--out', {str(doc)!r}]) == 0\n"
        "step = 'catalog'\n" + check +
        f"assert run(['verify', {str(doc)!r}, '--U', 'U', '--V', 'V', '--out', {str(verdict)!r}]) == 0\n"
        "step = 'verify'\n" + check +
        f"assert run(['spectrum', {str(doc)!r}, '--U', 'U', '--out', {str(spectrum)!r}]) == 0\n"
        "step = 'spectrum'\n" + check
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(verdict.read_text())["is_sunada_triple"] is True
    assert json.loads(spectrum.read_text())["dimension"] == 12


# The sunada modules each command executes besides ``cli`` and the four that
# reading a document takes (algebra, gassmann, covering, specfile).
_COMMAND_MODULES = {
    "verify": (), "report": (), "graph": ("schreier",), "spectrum": ("schreier", "spectra"),
    "search": ("search",), "catalog": ("catalog",),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_command_executes_only_the_modules_it_uses(genus2_doc, tmp_path, command):
    """In a fresh interpreter, a command leaves the sunada modules it does not
    call in sys.modules but unexecuted: a lazily loaded module is of a
    subclass of ModuleType until the first read of one of its attributes,
    and ``type`` reads none.  numpy, fractions and decimal stay unloaded,
    apart from the exact Euler characteristics of ``report``."""
    doc = str(genus2_doc)
    argv = {
        "verify": ["verify", doc, "--U", "U", "--V", "V"],
        "report": ["report", doc, "--U", "U"],
        "graph": ["graph", doc, "--U", "U"],
        "spectrum": ["spectrum", doc, "--U", "U"],
        "search": ["search", doc, "--order", "8"],
        "catalog": ["catalog", "genus2"],
    }[command] + ["--out", str(tmp_path / "out.txt")]
    script = (
        "import json, sys, types\n"
        "from sunada.cli import run\n"
        f"code = run({argv!r})\n"
        "ours = sorted(m.partition('.')[2] for m in sys.modules if m.startswith('sunada.'))\n"
        "print(json.dumps({'code': code, 'registered': ours,\n"
        "    'executed': [m for m in ours if type(sys.modules['sunada.' + m]) is types.ModuleType],\n"
        "    'loaded': [m for m in ('numpy', 'fractions', 'decimal') if m in sys.modules]}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["registered"] == ["algebra", "catalog", "cli", "covering", "gassmann",
                                    "schreier", "search", "specfile", "spectra"]
    assert result["executed"] == sorted(
        {"cli", "algebra", "gassmann", "covering", "specfile", *_COMMAND_MODULES[command]})
    assert result["loaded"] == (["fractions", "decimal"] if command == "report" else [])
