"""Bundled example constructions, stored as their group documents.

Three classical Sunada triples ship with the package:

* ``genus2``: an order-96 permutation group on 12 points with two order-8
  subgroups; the quotients are smooth genus-2 surfaces.
* ``genus3``: GL(2, Z/4) (order 96) with an order-8 subgroup and its image
  under transposition; the quotients are smooth genus-3 surfaces.
* ``orbifold-h``: the order-32 semidirect product of the units mod 8 acting on
  Z/8, whose quotients are tori with four cone points of order 2.

Each entry is data: the document that ``sunada catalog NAME`` prints, its
expectations, and relations among its generators; a new entry needs no code.
``catalog_entry`` parses the document with ``specfile.parse_document`` and
checks every entry alike: group and subgroup orders, the relations, the
Sunada verdict of ``sunada verify``, and the cycle orders and smoothness of
the quotients, so a transcription slip fails fast as a CatalogError.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .algebra import FiniteGroup
from .covering import PolygonSpec, _cycle_orbits
from .gassmann import Subgroup, is_sunada_triple
from .specfile import SpecError, _evaluate_word, parse_document


class CatalogError(SpecError):
    """Self-verification of a bundled construction failed."""


class Expectations(NamedTuple):
    """Reference values carried with each entry.  ``catalog_entry`` checks
    the group and subgroup orders, the cycle orders and ``smooth`` whenever
    it loads the entry; only tests read the index, ``chi_orb`` and the genus."""

    group_order: int
    subgroup_order: int
    index: int
    cycle_orders: tuple[int, ...]
    chi_orb: int  # equal to the Fraction a covering report gives
    smooth: bool
    genus: int


class CatalogEntry(NamedTuple):
    name: str
    group: FiniteGroup
    subgroup_u: Subgroup
    subgroup_v: Subgroup
    polygon: PolygonSpec
    expected: Expectations
    # The stored document itself: read it, or copy it with document_from_catalog.
    document: dict[str, Any]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CatalogError(message)


GENUS2_DOCUMENT = {
    "kind": "permutation",
    "degree": 12,
    "generators": {"a": "(0,7,11)(1,5,6)(2,9,10)(3,4,8)", "b": "(0,4,2)(1,5,9)(3,7,11)(6,10,8)",
                   "c": "(0,10,5,6,4,11)(1,2,3,7,8,9)"},
    "subgroups": {
        "U": {"elements": [
            "", "(0,9)(1,7)(2,5,8,11)(3,6)", "(1,7)(4,10)", "(0,9)(2,11,8,5)(3,6)(4,10)",
            "(2,8)(5,11)", "(0,9)(2,5,8,11)(3,6)(4,10)", "(0,9)(1,7)(2,11,8,5)(3,6)",
            "(1,7)(2,8)(4,10)(5,11)"]},
        "V": {"elements": [
            "", "(0,9,6,3)(1,10)(2,8)(4,7)", "(0,3,6,9)(1,10)(2,8)(4,7)", "(0,6)(3,9)",
            "(1,7)(4,10)", "(0,9,6,3)(1,4)(2,8)(7,10)", "(0,3,6,9)(1,4)(2,8)(7,10)",
            "(0,6)(1,7)(3,9)(4,10)"]},
    },
    "polygon": {"edge_pairs": 2, "cycles": [
        {"label": "a", "word": "a"}, {"label": "b", "word": "b"}, {"label": "c", "word": "c"}]},
}
GENUS2_EXPECTED = Expectations(96, 8, 12, (3, 3, 6), -2, smooth=True, genus=2)


GENUS3_DOCUMENT = {
    "kind": "matrix2",
    "modulus": 4,
    "generators": {"a": [[3, 2], [3, 3]], "b": [[1, 3], [2, 3]], "c": [[3, 3], [1, 2]]},
    "subgroups": {
        "U1": {"elements": [
            [[1, 1], [0, 1]], [[1, 0], [0, 1]], [[1, 3], [0, 1]], [[1, 1], [0, 3]],
            [[1, 2], [0, 1]], [[1, 0], [0, 3]], [[1, 2], [0, 3]], [[1, 3], [0, 3]]]},
        "U2": {"elements": [
            [[1, 0], [0, 1]], [[1, 0], [2, 1]], [[1, 0], [3, 3]], [[1, 0], [1, 1]],
            [[1, 0], [1, 3]], [[1, 0], [3, 1]], [[1, 0], [0, 3]], [[1, 0], [2, 3]]]},
    },
    "polygon": {"edge_pairs": 2, "cycles": [
        {"label": "a", "word": "a"}, {"label": "b", "word": "b"}, {"label": "c", "word": "c"}]},
}
GENUS3_EXPECTED = Expectations(96, 8, 12, (4, 4, 6), -4, smooth=True, genus=3)


ORBIFOLD_H_DOCUMENT = {
    "kind": "semidirect",
    "modulus": 8,
    "generators": {"a": [3, 2], "b": [7, 1], "c": [7, 2]},
    "subgroups": {
        "U1": {"elements": [[1, 0], [5, 0], [7, 0], [3, 0]]},
        "U2": {"elements": [[1, 0], [3, 4], [7, 0], [5, 4]]},
    },
    "polygon": {"edge_pairs": 3, "cycles": [
        {"label": "a", "word": "a"}, {"label": "b", "word": "b"}, {"label": "c", "word": "c"},
        {"label": "abc", "word": "a b c"}]},
}
ORBIFOLD_H_EXPECTED = Expectations(32, 4, 8, (2, 2, 2, 4), -2, smooth=False, genus=1)


# name -> (stored document, expectations, words that evaluate to the identity)
_ENTRIES = {
    "genus2": (GENUS2_DOCUMENT, GENUS2_EXPECTED, ("a b c",)),
    "genus3": (GENUS3_DOCUMENT, GENUS3_EXPECTED, ("a b c^-1",)),
    "orbifold-h": (ORBIFOLD_H_DOCUMENT, ORBIFOLD_H_EXPECTED, ()),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    """Parse the stored document of one entry and check it against its
    expectations, its relations and the Sunada verdict."""
    try:
        document, expected, relations = _ENTRIES[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise CatalogError(f"unknown catalog entry {name!r} (known: {known})") from None
    try:
        spec = parse_document(document)
    except SpecError as exc:
        raise CatalogError(f"{name} document does not parse: {exc}") from exc
    group = spec.group
    _require(group.order == expected.group_order,
             f"{name} group has order {group.order}, expected {expected.group_order}")
    _require(len(spec.subgroups) == 2 and spec.polygon is not None,
             f"{name} document needs two subgroups and a polygon")
    (u_name, u), (v_name, v) = spec.subgroups.items()
    _require(u.order == v.order == expected.subgroup_order,
             f"{name} subgroups must have order {expected.subgroup_order}")
    for word in relations:
        _require(_evaluate_word(group, spec.named_elements, word, name) == group.identity,
                 f"{name} relation {word!r} does not hold")
    verdict = is_sunada_triple(group, u, v)
    _require(verdict.is_sunada_triple, f"{name} is not a Sunada triple: {u_name} and {v_name} are "
             + ("conjugate" if verdict.gassmann else "not Gassmann equivalent"))
    # Gassmann equivalent subgroups share their cycle orbits, so U's serve V.
    orbits = _cycle_orbits(group, verdict.profile_u, spec.polygon)
    orders = tuple(order for order, _ in orbits)
    _require(orders == expected.cycle_orders,
             f"{name} cycle orders {orders}, expected {expected.cycle_orders}")
    smooth = not any(counts for _, counts in orbits)
    _require(smooth == expected.smooth, f"{name} quotients smooth {smooth}, expected {expected.smooth}")
    return CatalogEntry(name=name, group=group, subgroup_u=u, subgroup_v=v,
                        polygon=spec.polygon, expected=expected, document=document)
