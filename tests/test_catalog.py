"""Built-in worked examples: construction checks and expected invariants."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from sunada import (
    CatalogError,
    Mat2,
    Perm,
    SemiPair,
    catalog,
    catalog_entry,
    catalog_names,
    covering_report,
    cycle_string,
    is_sunada_triple,
    parse_cycles,
)
from sunada.specfile import document_from_catalog, parse_document

from conftest import elements, invert, order_of


def test_catalog_names_are_stable():
    assert catalog_names() == ("genus2", "genus3", "orbifold-h")
    with pytest.raises(CatalogError):
        catalog_entry("bogus")


def test_entries_carry_distinct_subgroups():
    for name in catalog_names():
        entry = catalog_entry(name)
        assert entry.subgroup_u.member_set != entry.subgroup_v.member_set
        assert entry.subgroup_u.order == entry.subgroup_v.order


@pytest.mark.parametrize(
    "name, element_type",
    [("genus2", Perm), ("genus3", Mat2), ("orbifold-h", SemiPair)],
)
def test_entry_element_families(name, element_type):
    entry = catalog_entry(name)
    assert all(isinstance(e, element_type) for e in elements(entry.group))


def test_expectations_match_computation():
    for name in catalog_names():
        entry = catalog_entry(name)
        exp = entry.expected
        assert entry.group.order == exp.group_order
        assert entry.subgroup_u.order == exp.subgroup_order
        assert entry.subgroup_u.index == exp.index
        orders = tuple(order_of(entry.group, idx) for _, idx in entry.polygon.cycles)
        assert orders == exp.cycle_orders

        verdict = is_sunada_triple(entry.group, entry.subgroup_u, entry.subgroup_v)
        assert verdict.is_sunada_triple

        for sub in (entry.subgroup_u, entry.subgroup_v):
            report = covering_report(entry.group, sub, entry.polygon)
            assert report.chi_orb == exp.chi_orb
            assert report.smooth == exp.smooth
            assert report.genus == exp.genus


def test_expected_constants_pinned():
    assert catalog_entry("genus2").expected.chi_orb == Fraction(-2)
    assert catalog_entry("genus2").expected.genus == 2
    assert catalog_entry("genus3").expected.chi_orb == Fraction(-4)
    assert catalog_entry("genus3").expected.genus == 3
    h = catalog_entry("orbifold-h").expected
    assert h.chi_orb == Fraction(-2)
    assert h.smooth is False
    assert h.genus == 1


def test_document_round_trip_preserves_structure():
    for name in catalog_names():
        entry = catalog_entry(name)
        loaded = parse_document(document_from_catalog(entry))
        assert loaded.group.order == entry.group.order
        # identical subgroup member sets, compared as elements, in document order
        for sub, rebuilt in zip((entry.subgroup_u, entry.subgroup_v), loaded.subgroups.values()):
            assert {entry.group.element(i) for i in sub.members} == \
                {loaded.group.element(i) for i in rebuilt.members}
        # polygon survives with the same labels and elements
        assert loaded.polygon is not None
        assert len(loaded.polygon.cycles) == len(entry.polygon.cycles)
        for (lab_a, idx_a), (lab_b, idx_b) in zip(entry.polygon.cycles, loaded.polygon.cycles):
            assert lab_a == lab_b
            assert entry.group.element(idx_a) == loaded.group.element(idx_b)


@pytest.mark.parametrize("name", catalog_names())
def test_entry_is_its_exported_document(name):
    entry = catalog_entry(name)
    loaded = parse_document(document_from_catalog(entry))
    assert elements(loaded.group) == elements(entry.group)
    assert [s.members for s in loaded.subgroups.values()] == \
        [entry.subgroup_u.members, entry.subgroup_v.members]
    assert loaded.polygon.cycles == entry.polygon.cycles


def _inverse_matrix(rows):
    return [list(row) for row in invert(Mat2(4, tuple(map(tuple, rows)))).entries]


@pytest.mark.parametrize("name, corrupt, message", [
    # c replaced by its inverse keeps the group and the cycle orders, so only
    # the entry's relation can catch it
    pytest.param("genus2", lambda doc: doc["generators"].update(
        c=cycle_string(invert(parse_cycles(doc["generators"]["c"], 12)))),
        "genus2 relation 'a b c' does not hold", id="genus2-relation"),
    pytest.param("genus3", lambda doc: doc["generators"].update(
        c=_inverse_matrix(doc["generators"]["c"])),
        r"genus3 relation 'a b c\^-1' does not hold", id="genus3-relation"),
    # a second subgroup equal to the first is Gassmann equivalent to it, but conjugate
    pytest.param("genus2", lambda doc: doc["subgroups"].update(V=doc["subgroups"]["U"]),
                 "genus2 is not a Sunada triple: U and V are conjugate", id="genus2-verdict"),
    pytest.param("genus3", lambda doc: doc["subgroups"].update(U2=doc["subgroups"]["U1"]),
                 "genus3 is not a Sunada triple: U1 and U2 are conjugate", id="genus3-verdict"),
    pytest.param("orbifold-h", lambda doc: doc["subgroups"].update(U2=doc["subgroups"]["U1"]),
                 "orbifold-h is not a Sunada triple: U1 and U2 are conjugate",
                 id="orbifold-h-verdict"),
    ("genus2", lambda doc: doc["subgroups"]["U"]["elements"].pop(), "does not parse"),
    ("orbifold-h", lambda doc: doc["polygon"]["cycles"][3].update(word="a b"), "cycle orders"),
    ("orbifold-h", lambda doc: doc.update(modulus=16), "document does not parse"),
])
def test_corrupted_stored_document_raises(monkeypatch, name, corrupt, message):
    stored, expected, relations = catalog._ENTRIES[name]
    broken = copy.deepcopy(stored)
    corrupt(broken)
    monkeypatch.setitem(catalog._ENTRIES, name, (broken, expected, relations))
    with pytest.raises(CatalogError, match=message):
        catalog_entry(name)


def test_smoothness_expectation_is_checked(monkeypatch):
    stored, expected, relations = catalog._ENTRIES["orbifold-h"]
    monkeypatch.setitem(catalog._ENTRIES, "orbifold-h",
                        (stored, expected._replace(smooth=True), relations))
    with pytest.raises(CatalogError, match="orbifold-h quotients smooth False, expected True"):
        catalog_entry("orbifold-h")
