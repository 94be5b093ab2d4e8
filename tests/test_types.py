"""Contracts of the value types: elements and records are immutable named
tuples, ``Subgroup`` an immutable slotted class."""

from __future__ import annotations

import inspect
import json
from functools import cache

import numpy as np
import pytest

import sunada
from sunada import (
    CatalogError,
    ConePoint,
    CycleParseError,
    DenseSymMatrix,
    Mat2,
    Perm,
    PolygonSpec,
    SchreierGraph,
    SearchConfig,
    SemiPair,
    SpecError,
    SpectrumReport,
    Subgroup,
    UsageError,
    adjacency_matrix,
    catalog_entry,
    class_intersection_profile,
    coset_table,
    covering_report,
    document_from_catalog,
    eigenvalues_symmetric,
    find_sunada_pairs,
    generate_group,
    graph_isomorphic,
    is_sunada_triple,
    parse_cycles,
    parse_document,
    schreier_graph,
    spectra_equal,
    subgroup_from_members,
    subgroup_generate,
)
from sunada.algebra import _from_key, _key
from sunada.search import DEFAULT_SUBGROUP_CAP


@pytest.fixture(scope="module")
def values(genus2):
    """One instance of each value type, by name."""
    group, u, v = genus2.group, genus2.subgroup_u, genus2.subgroup_v
    return {
        "Perm": Perm((1, 0, 2)),
        "Mat2": Mat2(4, ((1, 1), (0, 3))),
        "SemiPair": SemiPair(8, 3, 2),
        "PolygonSpec": genus2.polygon,
        "SchreierGraph": schreier_graph(group, u, genus2.polygon.cycles),
        "CosetTable": coset_table(group, u),
        "Subgroup": u,
        "SunadaReport": is_sunada_triple(group, u, v),
        "CoveringReport": covering_report(group, u, genus2.polygon),
        "ConePoint": ConePoint("a", 3, 1),
        "Expectations": genus2.expected,
        "CatalogEntry": genus2,
        "SearchConfig": SearchConfig(order=8),
        "SpectrumReport": SpectrumReport((0.0, 4.0), 1e-15),
        "LoadedSpec": parse_document(document_from_catalog(genus2)),
    }


@pytest.mark.parametrize("name, field", [
    ("Perm", "images"), ("Mat2", "entries"), ("SemiPair", "u"),
    ("PolygonSpec", "cycles"), ("SchreierGraph", "perms"), ("CosetTable", "coset_of"),
    ("Subgroup", "members"), ("Subgroup", "member_set"), ("SunadaReport", "gassmann"),
    ("CoveringReport", "genus"), ("ConePoint", "order"), ("Expectations", "genus"),
    ("CatalogEntry", "polygon"), ("SearchConfig", "dedupe"),
    ("SpectrumReport", "residual"), ("LoadedSpec", "subgroups"),
])
def test_value_types_reject_assignment(values, name, field):
    value = values[name]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("element", [
    Perm((2, 0, 1)), Perm(tuple(range(1, 300)) + (0,)),
    Mat2(4, ((1, 1), (0, 3))), SemiPair(8, 3, 2),
], ids=["perm", "perm-300", "mat2", "pair"])
def test_elements_from_key_match_constructed(element):
    rebuilt = _from_key(element, _key(element))
    assert type(rebuilt) is type(element)
    assert rebuilt == element and hash(rebuilt) == hash(element)
    assert type(rebuilt[0]) is type(element[0])


def test_keyword_construction(genus2):
    assert Perm(images=[1, 0]) == Perm((1, 0))
    assert Mat2(modulus=4, entries=[[5, 0], [0, 1]]) == Mat2(4, ((1, 0), (0, 1)))
    assert SemiPair(modulus=8, u=11, v=-1) == SemiPair(8, 3, 7)
    assert PolygonSpec(edge_pairs=2, cycles=[("a", 1)]).cycles == (("a", 1),)
    config = SearchConfig(order=8, dedupe=False)
    assert (config.require_smooth, config.max_subgroups, config.dedupe) == (
        None, DEFAULT_SUBGROUP_CAP, False)
    u = genus2.subgroup_u
    assert Subgroup(parent=u.parent, members=u.members) == u


@cache
def _genus2():
    """The genus2 entry, for the cases below that need a group; parametrize
    builds its cases before any fixture exists."""
    return catalog_entry("genus2")


@pytest.mark.parametrize("build", [
    lambda: Perm(images=(0, 0)),
    lambda: Mat2(modulus=1, entries=((1, 0), (0, 1))),
    lambda: Mat2(modulus=4, entries=((2, 0), (0, 2))),
    lambda: SemiPair(modulus=8, u=2, v=0),
    lambda: PolygonSpec(edge_pairs=0, cycles=(("a", 0),)),
    lambda: PolygonSpec(edge_pairs=1, cycles=(("a", 0), ("a", 1))),
    lambda: SchreierGraph(vertex_count=2, labels=("a",), perms=((0, 0),)),
    lambda: SchreierGraph(vertex_count=2, labels=("a",), perms=((1, 2),)),
    lambda: SchreierGraph(vertex_count=2, labels=("a", "b"), perms=((1, 0),)),
    lambda: SchreierGraph(vertex_count=2, labels=("a",), perms=((1, 0), (0, 1))),
    # Integers are read through operator.index, not truncated or parsed.
    lambda: Perm([1.5, 0.5]),
    lambda: Perm(["1", "0"]),
    lambda: Mat2(4, ((1.5, 0), (0, 1))),
    lambda: SemiPair(8, 3.7, "2"),
    lambda: PolygonSpec(2, [("a", 1.9)]),
    lambda: SchreierGraph(2, ["a"], [[1.0, 0.0]]),
    lambda: parse_cycles("(0,1)", 2.5),
    lambda: parse_cycles("(0,1)", "3"),
    lambda: parse_cycles("(0,1)", 10**12),  # refused before its images are allocated
    # Misshapen input is a UsageError too, not a TypeError or ValueError.
    lambda: Perm(5),
    lambda: Mat2(4, 7),
    lambda: Mat2(4, ((1, 0, 0), (0, 1))),
    lambda: PolygonSpec(2, [("a",)]),
    lambda: PolygonSpec(2, 5),
    lambda: SchreierGraph(2, ["a"], 5),
    lambda: SchreierGraph(2, 5, [[1, 0]]),
    lambda: SchreierGraph(2.0, ["a"], [[1, 0]]),
    lambda: parse_cycles(5, 3),
    lambda: parse_cycles(b"(0,1)", 3),
    # So is a value that is not an element at all.
    lambda: generate_group([5]),
    lambda: generate_group([(1, 0)]),
    # Library calls on a group: indices are read through operator.index before
    # any sort, and each argument's type is checked before it is used.
    lambda: subgroup_generate(_genus2().group, [1.5]),
    lambda: subgroup_from_members(_genus2().group, [0, "a"]),
    lambda: schreier_graph(_genus2().group, _genus2().subgroup_u, [1]),
    lambda: find_sunada_pairs(_genus2().group, SearchConfig(order="2")),
    lambda: eigenvalues_symmetric(adjacency_matrix(
        schreier_graph(_genus2().group, _genus2().subgroup_u, _genus2().polygon.cycles)),
        tol="x"),
    lambda: graph_isomorphic(5, 5),
    lambda: covering_report(_genus2().group, _genus2().subgroup_u, 5),
    lambda: class_intersection_profile(_genus2().group, 5),
    # A graph function checks that it was given a SchreierGraph.
    lambda: adjacency_matrix(5),
    # Numbers that do not convert are refused before numpy or float sees them.
    lambda: DenseSymMatrix("x"),
    lambda: spectra_equal([1.0], ["a"]),
    lambda: generate_group([Perm((1, 0))], max_elements="x"),
], ids=["perm", "mat2-modulus", "mat2-det", "pair", "polygon-pairs", "polygon-labels", "graph",
        "graph-out-of-range", "graph-too-few-perms", "graph-too-many-perms",
        "perm-floats", "perm-strings", "mat2-float", "pair-float-and-string",
        "polygon-float", "graph-floats", "cycles-float-degree", "cycles-string-degree",
        "cycles-huge-degree",
        "perm-not-iterable", "mat2-not-iterable", "mat2-misshapen", "polygon-misshapen",
        "polygon-not-iterable", "graph-perms-not-iterable", "graph-labels-not-iterable",
        "graph-float-vertex-count", "cycles-int-text", "cycles-bytes-text",
        "generate-int", "generate-tuple", "subgroup-float-index",
        "members-string-index", "graph-labels-not-pairs", "search-string-order",
        "spectrum-string-tol", "isomorphic-ints", "covering-int-polygon", "profile-int-subgroup",
        "adjacency-int", "matrix-string", "spectra-strings",
        "generate-string-cap"])
def test_invalid_input_raises_usage_error(build):
    with pytest.raises(UsageError):
        build()


# The public calls that take a non-value argument unchecked, and why.
_UNCHECKED = {
    "simultaneous_conjugator": "has no caller but perfbench and is to be deleted (ROADMAP item 8)",
}


def test_public_calls_refuse_a_non_value_argument(values, genus2):
    """Every public function and value type, given the int 5 for one required
    parameter and valid genus2 values for the others, raises one of the
    package's documented errors or returns, never a bare AttributeError or
    TypeError.  The valid arguments alone must make a good call."""
    group, u, v = genus2.group, genus2.subgroup_u, genus2.subgroup_v
    graph, element = values["SchreierGraph"], group.element(1)
    document = document_from_catalog(genus2)
    # Arguments by parameter name; "function.parameter" where one function
    # reads a name differently.  A value type's arguments are the fields of
    # its instance in ``values``.
    table = {
        "perm": element, "element": element,
        "text": json.dumps(document), "parse_cycles.text": "(0,1)",
        "degree": 12, "generators": [1], "generate_group.generators": [element],
        "FiniteGroup.generators": [element],
        "group": group, "sub": u, "u": u, "v": v, "members": u.members, "g": 1,
        "spec": genus2.polygon,
        "labels": genus2.polygon.cycles, "graph": graph, "g1": graph, "g2": graph,
        "order": 8, "config": SearchConfig(order=8), "pair1": (u, v), "pair2": (v, u),
        "entries": [[2, 1], [1, 2]], "matrix": DenseSymMatrix([[2, 1], [1, 2]]),
        "s1": (1.0, 3.0), "s2": (1.0, 3.0), "name": "genus2", "entry": genus2,
        "doc": document, "body": document["polygon"],
        "named": values["LoadedSpec"].named_elements,
    }
    failures = []
    for name in sunada.__all__:
        call = getattr(sunada, name)
        if name in _UNCHECKED or not (inspect.isfunction(call) or inspect.isclass(call)) \
                or (inspect.isclass(call) and issubclass(call, Exception)):
            continue
        required = [p.name for p in inspect.signature(call).parameters.values()
                    if p.default is p.empty]
        if name in values:
            valid = {p: getattr(values[name], p) for p in required}
        else:
            valid = {p: table.get(f"{name}.{p}") or table[p] for p in required}
        call(**valid)
        for param in required:
            try:
                call(**{**valid, param: 5})
            except (UsageError, SpecError, CycleParseError, CatalogError):
                pass
            except Exception as exc:
                failures.append(f"{name}({param}=5): {type(exc).__name__}: {exc}")
    assert failures == []


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    elif not isinstance(value, str):
        yield value


# Bools and numpy ints are integers to operator.index, and are stored as ints.
@pytest.mark.parametrize("build", [
    lambda: SchreierGraph(2, ["a"], [[True, False]]),
    lambda: Perm(np.array([1, 0])),
    lambda: Mat2(np.int64(4), np.array([[1, 1], [0, 3]])),
    lambda: SemiPair(np.int64(8), np.int32(3), np.uint8(2)),
    lambda: PolygonSpec(np.int64(2), [("a", np.int64(1))]),
    lambda: PolygonSpec(True, [("a", 1)]),
], ids=["graph-bools", "perm-numpy", "mat2-numpy", "pair-numpy", "polygon-numpy",
        "polygon-bool"])
def test_integer_values_are_stored_as_ints(build):
    values = list(_leaves(build()))
    assert values and all(type(v) is int for v in values)


def test_subgroup_equality_is_over_parent_and_members(genus2):
    u = genus2.subgroup_u
    same = Subgroup(u.parent, tuple(u.members))
    assert same == u and hash(same) == hash(u) == hash((u.parent, u.members))
    assert same.member_set is not u.member_set
    twin = generate_group(map(u.parent.element, u.parent.generators))
    assert twin.order == u.parent.order and twin.identity == u.parent.identity
    assert Subgroup(twin, u.members) != u
    assert repr(u) == f"Subgroup(members={u.members!r})"


# Each would break a later call: a coset walk over members without the
# identity never ends, no members divide the order by zero, and an index out
# of range fails a table lookup.  genus2's identity has index 10.
@pytest.mark.parametrize("parent, members", [
    (None, (1,)), (None, ()), (None, (0, 10**6)), (None, (10, 96)), (None, (-1, 10)),
    (None, (10, 0)), (None, (10, 10)), (None, (0, 1, 2, 3, 10)), (None, (0.0, 10)),
    (None, [10]), (5, (10,)),
], ids=["no-identity", "empty", "out-of-range", "past-the-end", "negative", "unsorted",
        "repeated", "count-not-dividing", "float", "list", "parent-not-a-group"])
def test_subgroup_refuses_what_cannot_be_one(genus2, parent, members):
    assert genus2.group.identity == 10
    with pytest.raises(UsageError):
        Subgroup(genus2.group if parent is None else parent, members)
