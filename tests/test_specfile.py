"""JSON group documents: parsing, words, and error reporting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from sunada import (Mat2, Perm, SemiPair, UsageError, catalog_entry, document_from_catalog,
                    generate_group, parse_cycles)
from sunada import specfile
from sunada.specfile import (SpecError, _parse_element, load_text, parse_document, parse_polygon,
                             render_element)

from conftest import MALFORMED_CYCLES, OVERLONG_POINT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from groups import psl_document
finally:
    sys.path.remove(str(PERFBENCH))

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
        # 1e400 decodes to float infinity, which int() cannot convert
        lambda d: d.update(degree=1e400),
        lambda d: d.update(kind="matrix2", modulus=1e400),
        lambda d: d.update(kind="matrix2", modulus=4, generators={"m": [[1e400, 0], [0, 1]]}),
        lambda d: d.update(kind="semidirect", modulus=8, generators={"p": [1, 1e400]}),
        lambda d: d.update(polygon={"edge_pairs": 1e400, "cycles": [{"label": "p", "word": "r"}]}),
        # numbers must be JSON integers: no truncated floats, strings or booleans
        lambda d: d.update(polygon={"edge_pairs": 2.9, "cycles": [{"label": "p", "word": "r"}]}),
        lambda d: d.update(degree=12.7),
        lambda d: d.update(degree="12"),
        lambda d: d.update(degree=True),
        lambda d: d.update(kind="matrix2", modulus=4, generators={"m": [[3.9, 0], [0, 1]]}),
        lambda d: d.update(kind="semidirect", modulus=8, generators={"p": [1, 1.0]}),
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


# Out of range, a string, a float, and -1, which would name the last element.
@pytest.mark.parametrize("value", [999, "x", 1.5, -1])
def test_parse_polygon_refuses_a_named_value_that_is_no_element_index(genus2, value):
    spec = parse_document(document_from_catalog(genus2))
    body = document_from_catalog(genus2)["polygon"]
    assert parse_polygon(body, spec.group, spec.named_elements) == spec.polygon
    with pytest.raises(UsageError):
        parse_polygon(body, spec.group, {**spec.named_elements, "a": value})


def test_render_element_inverts_parsing():
    spec = parse_document(S3_DOC)
    for name, idx in spec.named_elements.items():
        rendered = render_element(spec.group.element(idx))
        assert rendered == S3_DOC["generators"][name]
    assert render_element(Mat2(4, ((1, 2), (0, 1)))) == [[1, 2], [0, 1]]
    assert render_element(SemiPair(8, 3, 7)) == [3, 7]


# ------------------------------------------------------------ listed elements

@pytest.mark.parametrize("name, seed", [(name, None) for name in ("genus2", "genus3", "orbifold-h")]
                         + [(name, seed) for name in ("PSL(3,2)", "PSL(2,11)") for seed in (1, 7)])
def test_listed_subgroups_read_as_one_element_at_a_time(name, seed):
    """Read as one list, a listed subgroup has the members its elements have
    one at a time, and the group the same element order."""
    doc = document_from_catalog(catalog_entry(name)) if seed is None else psl_document(name, seed)
    kind, parameter = doc["kind"], doc.get("degree", doc.get("modulus"))
    spec = load_text(json.dumps(doc))
    gens = [_parse_element(kind, parameter, raw, name) for raw in doc["generators"].values()]
    assert spec.group._keys == generate_group(gens)._keys
    for sub_name, body in doc["subgroups"].items():
        if "elements" in body:
            want = {spec.group.index_of(parse_cycles(raw, parameter) if kind == "permutation"
                                        else _parse_element(kind, parameter, raw, name))
                    for raw in body["elements"]}
            assert spec.subgroups[sub_name].members == tuple(sorted(want))


def test_listed_permutations_parse_no_element_on_their_own(monkeypatch):
    """PSL(2,11) lists 120 elements; only its two generators are parsed
    one at a time, so the listed ones took the bulk reader."""
    calls = []

    def counted(text, degree):
        calls.append(text)
        return parse_cycles(text, degree)

    monkeypatch.setattr(specfile, "parse_cycles", counted)
    doc = psl_document("PSL(2,11)", 1)
    spec = load_text(json.dumps(doc))
    assert [len(sub.members) for sub in spec.subgroups.values()] == [60, 60]
    assert calls == list(doc["generators"].values())


_S12_PAIR = {"kind": "permutation", "degree": 12, "generators": {"a": "(0,1)", "b": "(2,3)"}}
_LISTED_ERRORS = MALFORMED_CYCLES + [
    ("(0,1)|(2,3)", "expected '('", 5),
    ("(-0,1)", "expected a point number", 1),
    ("(0,1),(1,2)", "expected '('", 5),
    ("(1.0,2)", "expected ',' or ')'", 2),
    ("(true,1)", "expected a point number", 1),
]


@pytest.mark.parametrize("text, message, position", _LISTED_ERRORS,
                         ids=["overlong-point" if text == OVERLONG_POINT else text
                              for text, _, _ in _LISTED_ERRORS])
def test_a_malformed_listed_element_names_its_position(text, message, position):
    doc = dict(_S12_PAIR, subgroups={"U": {"elements": ["", "(0,1)", text]}})
    with pytest.raises(SpecError) as excinfo:
        parse_document(doc)
    assert str(excinfo.value) == f"subgroup 'U': {message} (at position {position})"


@pytest.mark.parametrize("elements, message", [
    (["", "(4,5)", "(6,7)"], "element '(4,5)' is not in the generated group"),
    # the first element at fault is named, also before a malformed one
    (["", "(4,5)", "(0,0)"], "element '(4,5)' is not in the generated group"),
    (["", "(0,1)", "(2,3)", "(0,1)(2,3)", "(0,2)"],
     "element '(0,2)' is not in the generated group"),
    (["", 5], "permutation elements are cycle strings"),
])
def test_a_listed_element_at_fault_is_named(elements, message):
    doc = dict(_S12_PAIR, subgroups={"U": {"elements": elements}})
    with pytest.raises(SpecError) as excinfo:
        parse_document(doc)
    assert str(excinfo.value) == f"subgroup 'U': {message}"
