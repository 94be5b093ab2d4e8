"""Bundled example constructions, stored as their group documents.

Three classical Sunada triples ship with the package:

* ``genus2``: an order-96 permutation group on 12 points with two order-8
  subgroups; the quotients are smooth genus-2 surfaces.
* ``genus3``: GL(2, Z/4) (order 96) with an order-8 subgroup and its image
  under transposition; the quotients are smooth genus-3 surfaces.
* ``orbifold-h``: the order-32 semidirect product of the units mod 8 acting on
  Z/8, whose quotients are orbifolds with cone points of order 2.

Each entry is stored as the literal document that ``sunada catalog NAME``
prints.  ``catalog_entry`` builds the entry with ``specfile.parse_document``
and cross-checks derived facts (group order, subgroup orders, cycle orders and
the entry's own relations), so a transcription slip fails fast as a
CatalogError.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .algebra import FiniteGroup, Mat2, element_order
from .covering import PolygonSpec, smoothness
from .gassmann import Subgroup, are_gassmann
from .specfile import LoadedSpec, SpecError, parse_document

__all__ = ["CatalogError", "Expectations", "CatalogEntry", "catalog_names", "catalog_entry"]


class CatalogError(RuntimeError):
    """Self-verification of a bundled construction failed."""


class Expectations(NamedTuple):
    """Reference values carried with each entry for tests and reporting."""

    group_order: int
    subgroup_order: int
    index: int
    cycle_orders: tuple[int, ...]
    chi_orb: int  # equal to the Fraction a covering report gives
    smooth: bool
    genus: int | None


class CatalogEntry(NamedTuple):
    name: str
    group: FiniteGroup
    u_name: str
    v_name: str
    subgroup_u: Subgroup
    subgroup_v: Subgroup
    generator_labels: tuple[tuple[str, int], ...]
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


def _check_genus2(spec: LoadedSpec) -> None:
    group = spec.group
    a, b, c = (spec.named_elements[n] for n in "abc")
    _require(group.inv(group.mul(a, b)) == c, "genus2 third generator is not (a b)^-1")


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


def _check_genus3(spec: LoadedSpec) -> None:
    group = spec.group
    a, b, c = (spec.named_elements[n] for n in "abc")
    u1, u2 = spec.subgroups["U1"], spec.subgroups["U2"]
    _require(group.mul(a, b) == c, "genus3 third generator is not a b")
    transposed = {group.index_of(Mat2(spec.parameter, tuple(zip(*group.element(i).entries))))
                  for i in u1.members}
    _require(transposed == u2.member_set, "genus3 second subgroup is not the transpose image")
    _require(are_gassmann(group, u1, u2), "genus3 subgroups are not Gassmann equivalent")
    _require(all(smoothness(group, u1, spec.polygon)) and all(smoothness(group, u2, spec.polygon)),
             "genus3 quotients are not smooth")


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
ORBIFOLD_H_EXPECTED = Expectations(32, 4, 8, (2, 2, 2, 4), -2, smooth=False, genus=None)


# name -> (stored document, expectations, entry-specific check or None)
_ENTRIES = {
    "genus2": (GENUS2_DOCUMENT, GENUS2_EXPECTED, _check_genus2),
    "genus3": (GENUS3_DOCUMENT, GENUS3_EXPECTED, _check_genus3),
    "orbifold-h": (ORBIFOLD_H_DOCUMENT, ORBIFOLD_H_EXPECTED, None),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    """Parse the stored document of one entry and check it against its
    expectations."""
    try:
        document, expected, check = _ENTRIES[name]
    except KeyError:
        known = ", ".join(_ENTRIES)
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
    orders = tuple(element_order(group.element(e)) for _, e in spec.polygon.cycles)
    _require(orders == expected.cycle_orders,
             f"{name} cycle orders {orders}, expected {expected.cycle_orders}")
    if check is not None:
        check(spec)
    return CatalogEntry(
        name=name, group=group, u_name=u_name, v_name=v_name, subgroup_u=u, subgroup_v=v,
        generator_labels=tuple(spec.named_elements.items()),
        polygon=spec.polygon,
        expected=expected, document=document)
