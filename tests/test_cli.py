"""Command line behavior: output shapes, exit codes, pipelines, determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from sunada import ResourceError, is_sunada_triple
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


def test_catalog_rejects_unknown_name(capsys):
    assert run(["catalog", "bogus"]) == 2
    assert capsys.readouterr().err != ""


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


def test_spectrum_unreachable_tolerance_exits_three(genus2_doc, capsys):
    assert run(["spectrum", str(genus2_doc), "--U", "U", "--tol", "1e-300"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_spectrum_nonpositive_tolerance_exits_two(genus2_doc, capsys):
    assert run(["spectrum", str(genus2_doc), "--U", "U", "--tol", "0"]) == 2
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

    monkeypatch.setattr("sunada.cli._sunada_pairs", first_pair_then_cap)
    target = tmp_path / "pairs.jsonl"
    assert run(["search", str(orbifold_doc), "--order", "4", "--out", str(target)]) == 2
    lines = target.read_text().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"u", "v", "report"}
    assert "max_subgroups" in capsys.readouterr().err


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


def test_no_arguments_exits_two(capsys):
    assert run([]) == 2


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


def test_commands_without_spectra_leave_numpy_unloaded(tmp_path):
    doc, verdict = tmp_path / "genus2.json", tmp_path / "verdict.json"
    script = (
        "import sys\n"
        "import sunada\n"
        "assert 'numpy' not in sys.modules, 'import sunada loaded numpy'\n"
        "from sunada.cli import run\n"
        f"assert run(['catalog', 'genus2', '--out', {str(doc)!r}]) == 0\n"
        f"assert run(['verify', {str(doc)!r}, '--U', 'U', '--V', 'V', '--out', {str(verdict)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'verify loaded numpy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(verdict.read_text())["is_sunada_triple"] is True
