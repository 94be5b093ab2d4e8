"""JSON group documents: parsing, words, and error reporting."""

from __future__ import annotations

import pytest

from sunada import Mat2, Perm, SemiPair
from sunada.specfile import SpecError, load_text, parse_document, render_element

S3_DOC = {
    "kind": "permutation",
    "degree": 3,
    "generators": {"t": "(0,1)", "r": "(0,1,2)"},
    "subgroups": {
        "T": {"elements": ["", "(0,1)"]},
        "W": {"generators": ["r"]},
        "X": {"generators": ["t r^-1"]},
    },
    "polygon": {"edge_pairs": 1, "cycles": [{"label": "p", "word": "r r r"}]},
}


def test_permutation_document_happy_path():
    spec = parse_document(S3_DOC)
    assert spec.kind == "permutation"
    assert spec.parameter == 3
    assert spec.group.order == 6
    assert spec.generator_names == ("t", "r")
    assert spec.group.element(spec.named_elements["t"]) == Perm((1, 0, 2))

    assert spec.subgroups["T"].order == 2
    assert spec.subgroups["W"].order == 3
    # t r^-1 sends 0 -> 0, 1 -> 2, 2 -> 1
    assert spec.subgroups["X"].order == 2
    assert spec.group.element(sorted(spec.subgroups["X"].members)[-1]) == Perm((0, 2, 1))

    assert spec.polygon is not None
    (label, idx), = spec.polygon.cycles
    assert label == "p"
    assert idx == spec.group.identity  # r r r is the identity


def test_matrix_document_happy_path():
    doc = {
        "kind": "matrix2",
        "modulus": 2,
        "generators": {"s": [[0, 1], [1, 0]], "u": [[1, 1], [0, 1]]},
        "subgroups": {"B": {"generators": ["u"]}},
    }
    spec = parse_document(doc)
    assert spec.group.order == 6  # GL(2, Z/2)
    assert spec.subgroups["B"].order == 2
    assert isinstance(spec.group.element(0), Mat2)
    assert spec.polygon is None


def test_semidirect_document_happy_path():
    doc = {
        "kind": "semidirect",
        "modulus": 4,
        "generators": {"a": [3, 0], "b": [1, 1]},
    }
    spec = parse_document(doc)
    assert spec.group.order == 8
    assert isinstance(spec.group.element(0), SemiPair)
    assert spec.subgroups == {}


def test_load_text_rejects_invalid_json():
    with pytest.raises(SpecError):
        load_text("{not json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="octonion"),
        lambda d: d.pop("degree"),
        lambda d: d.update(degree="twelve"),
        lambda d: d.pop("generators"),
        lambda d: d.update(generators={}),
        lambda d: d.update(polygon={"edge_pairs": 1, "cycles": 5}),
        lambda d: d.update(subgroups=[1]),
        lambda d: d.update(subgroups={"U": {"elements": 5}}),
    ],
)
def test_structural_errors(mutate):
    doc = {k: (v.copy() if isinstance(v, dict) else v) for k, v in S3_DOC.items()}
    mutate(doc)
    with pytest.raises(SpecError):
        parse_document(doc)


def test_top_level_must_be_object():
    with pytest.raises(SpecError):
        parse_document(["not", "an", "object"])


def test_subgroup_needs_exactly_one_source():
    doc = dict(S3_DOC, subgroups={"B": {"elements": [""], "generators": ["t"]}})
    with pytest.raises(SpecError):
        parse_document(doc)
    doc = dict(S3_DOC, subgroups={"B": {}})
    with pytest.raises(SpecError):
        parse_document(doc)


def test_subgroup_element_list_must_be_closed():
    doc = dict(S3_DOC, subgroups={"B": {"elements": ["", "(0,1,2)"]}})
    with pytest.raises(SpecError, match="closed"):
        parse_document(doc)


def test_subgroup_elements_must_lie_in_group():
    doc = {
        "kind": "semidirect",
        "modulus": 8,
        "generators": {"a": [1, 2]},
        "subgroups": {"B": {"elements": [[1, 0], [3, 0]]}},
    }
    # the group generated by (1, 2) is only the even translations
    with pytest.raises(SpecError, match="not in the generated group"):
        parse_document(doc)


def test_word_grammar_errors():
    doc = dict(S3_DOC, subgroups={"B": {"generators": ["t q"]}})
    with pytest.raises(SpecError, match="unknown generator"):
        parse_document(doc)
    doc = dict(S3_DOC, subgroups={"B": {"generators": [" "]}})
    with pytest.raises(SpecError, match="empty word"):
        parse_document(doc)


def test_malformed_elements_carry_context():
    doc = dict(S3_DOC, generators={"t": "(0,99)"})
    with pytest.raises(SpecError, match="generator 't'"):
        parse_document(doc)
    doc = {"kind": "matrix2", "modulus": 4, "generators": {"m": [[1, 0], [0]]}}
    with pytest.raises(SpecError):
        parse_document(doc)


def test_polygon_requires_label_and_word():
    doc = dict(S3_DOC, polygon={"edge_pairs": 1, "cycles": [{"label": "p"}]})
    with pytest.raises(SpecError):
        parse_document(doc)
    doc = dict(S3_DOC, polygon={"edge_pairs": 1})
    with pytest.raises(SpecError):
        parse_document(doc)


def test_render_element_inverts_parsing():
    spec = parse_document(S3_DOC)
    for name, idx in spec.named_elements.items():
        rendered = render_element("permutation", spec.group.element(idx))
        assert rendered == S3_DOC["generators"][name]
    assert render_element("matrix2", Mat2(4, ((1, 2), (0, 1)))) == [[1, 2], [0, 1]]
    assert render_element("semidirect", SemiPair(8, 3, 7)) == [3, 7]
