"""JSON group documents.

A document names its element family, the family parameter, a set of named
generators, optional named subgroups, and an optional polygon::

    {
      "kind": "permutation",            // or "matrix2", "semidirect"
      "degree": 12,                     // "modulus" for the other two kinds
      "generators": {"a": "(0,1,2)", "b": "(0,1)"},
      "subgroups": {
        "U": {"elements": ["", "(0,1)"]},
        "W": {"generators": ["a b^-1"]}
      },
      "polygon": {
        "edge_pairs": 2,
        "cycles": [{"label": "a", "word": "a"}, {"label": "r", "word": "b^-1 a^-1"}]
      }
    }

The group is the closure of all named generators.  Subgroups are given either
as explicit element lists (which must already be closed) or as generator
words.  Words are whitespace separated generator names, each optionally
followed by ``^-1``.  Polygon cycles are words too.
"""

from __future__ import annotations

import copy
import json
from typing import Any, NamedTuple

from .algebra import (DEFAULT_ELEMENT_CAP, CycleParseError, Element, FiniteGroup,
                      Mat2, Perm, SemiPair, UsageError, _element_cap, _expect,
                      cycle_string, generate_group, parse_cycles)
from .covering import PolygonSpec
from .gassmann import Subgroup, _check_indices, subgroup_from_members, subgroup_generate

__all__ = [
    "SpecError",
    "LoadedSpec",
    "parse_document",
    "parse_polygon",
    "decode_json",
    "load_text",
    "render_element",
    "document_from_catalog",
]

KINDS = ("permutation", "matrix2", "semidirect")


class SpecError(ValueError):
    """The document does not describe a valid group."""


def _integer(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer (an int, not a bool), else SpecError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{what} must be an integer, got {type(value).__name__}")
    return value


class LoadedSpec(NamedTuple):
    group: FiniteGroup
    generator_names: tuple[str, ...]
    named_elements: dict[str, int]
    subgroups: dict[str, Subgroup]
    polygon: PolygonSpec | None


def _parse_element(kind: str, parameter: int, raw: Any, where: str) -> Element:
    try:
        if kind == "permutation":
            if not isinstance(raw, str):
                raise SpecError("permutation elements are cycle strings")
            return parse_cycles(raw, parameter)
        if kind == "matrix2":
            rows = [[_integer(x, "a matrix entry") for x in row] for row in raw]
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise SpecError("matrix elements are 2x2 integer arrays")
            return Mat2(parameter, ((rows[0][0], rows[0][1]), (rows[1][0], rows[1][1])))
        if kind == "semidirect":
            u, v = (_integer(x, "a pair entry") for x in raw)
            return SemiPair(parameter, u, v)
    except (CycleParseError, UsageError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"unknown kind {kind!r}")


def render_element(element: Element) -> Any:
    """The JSON form of one element, inverse of ``_parse_element``."""
    if isinstance(element, Perm):
        return cycle_string(element)
    if isinstance(element, Mat2):
        return [list(row) for row in element.entries]
    if isinstance(element, SemiPair):
        return [element.u, element.v]
    raise UsageError(f"unsupported element type {type(element).__name__}")


def _evaluate_word(group: FiniteGroup, named: dict[str, int], word: str, where: str) -> int:
    acc = group.identity
    tokens = word.split()
    if not tokens:
        raise SpecError(f"{where}: empty word")
    for token in tokens:
        invert = token.endswith("^-1")
        name = token[:-3] if invert else token
        if name not in named:
            raise SpecError(f"{where}: unknown generator {name!r} in word {word!r}")
        e = named[name]
        acc = group.mul(acc, group.inv(e) if invert else e)
    return acc


def parse_polygon(body: Any, group: FiniteGroup, named: dict[str, int]) -> PolygonSpec:
    """A polygon object, its cycle words evaluated over the named generators:
    ``named`` maps each name to an element index of ``group``."""
    _expect(named, dict)
    named = dict(zip(named, _check_indices(group, named.values())))
    if (not isinstance(body, dict) or "edge_pairs" not in body
            or not isinstance(body.get("cycles"), list)):
        raise SpecError("'polygon' needs 'edge_pairs' and a list of 'cycles'")
    cycles = []
    for cyc in body["cycles"]:
        if not isinstance(cyc, dict) or "label" not in cyc or "word" not in cyc:
            raise SpecError("each polygon cycle needs 'label' and 'word'")
        label = str(cyc["label"])
        cycles.append((label, _evaluate_word(group, named, str(cyc["word"]),
                                             f"polygon cycle {label!r}")))
    try:
        return PolygonSpec(_integer(body["edge_pairs"], "'edge_pairs'"), tuple(cycles))
    except (UsageError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"polygon: {exc}") from exc


def _listed_count(doc: dict) -> int:
    """The generator entries, listed subgroup elements and subgroup and
    polygon word tokens of a document; parts of the wrong shape count none."""
    generators, bodies, polygon = doc.get("generators"), doc.get("subgroups"), doc.get("polygon")
    count = len(generators) if isinstance(generators, dict) else 0
    words = []
    for body in bodies.values() if isinstance(bodies, dict) else ():
        if isinstance(body, dict):
            elements, gens = body.get("elements"), body.get("generators")
            count += len(elements) if isinstance(elements, list) else 0
            words += gens if isinstance(gens, list) else []
    cycles = polygon.get("cycles") if isinstance(polygon, dict) else None
    if isinstance(cycles, list):
        words += [cyc["word"] for cyc in cycles if isinstance(cyc, dict) and "word" in cyc]
    return count + sum(len(str(word).split()) for word in words)


def parse_document(doc: Any) -> LoadedSpec:
    """Build the group, named subgroups, and polygon described by a document."""
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
    param_key = "degree" if kind == "permutation" else "modulus"
    if param_key not in doc:
        raise SpecError(f"missing {param_key!r} for kind {kind!r}")
    parameter = _integer(doc[param_key], repr(param_key))
    if kind == "permutation" and parameter > DEFAULT_ELEMENT_CAP:
        raise SpecError(f"'degree' {parameter} exceeds the bound of {DEFAULT_ELEMENT_CAP}")
    # Each listed element, generator entry and word token costs O(degree) or
    # O(bits of the modulus) to parse or multiply, so a document may list
    # no more of them than the group it describes may have elements.
    cap, where = _element_cap(kind == "permutation", parameter)
    listed = _listed_count(doc)
    if listed > cap:
        raise SpecError(f"{listed} listed elements and word tokens exceed the cap of {cap}{where}")

    generators = doc.get("generators")
    if not isinstance(generators, dict) or not generators:
        raise SpecError("'generators' must be a non-empty object of name -> element")
    parsed: dict[str, Element] = {}
    for name, raw in generators.items():
        parsed[str(name)] = _parse_element(kind, parameter, raw, f"generator {name!r}")
    group = generate_group(list(parsed.values()))
    named = {name: group.index_of(e) for name, e in parsed.items()}

    subgroups: dict[str, Subgroup] = {}
    bodies = doc.get("subgroups") or {}
    if not isinstance(bodies, dict):
        raise SpecError("'subgroups' must be an object of name -> subgroup")
    for name, body in bodies.items():
        where = f"subgroup {name!r}"
        if not isinstance(body, dict) or len(body.keys() & {"elements", "generators"}) != 1:
            raise SpecError(f"{where}: give exactly one of 'elements' or 'generators'")
        source = "elements" if "elements" in body else "generators"
        if not isinstance(body[source], list):
            raise SpecError(f"{where}: {source!r} must be a list")
        if source == "elements":
            indices = []
            for raw in body["elements"]:
                e = _parse_element(kind, parameter, raw, where)
                try:
                    indices.append(group.index_of(e))
                except UsageError:
                    raise SpecError(f"{where}: element {raw!r} is not in the generated group") from None
            try:
                subgroups[str(name)] = subgroup_from_members(group, indices)
            except UsageError as exc:
                raise SpecError(f"{where}: {exc}") from exc
        else:
            indices = [_evaluate_word(group, named, str(w), where) for w in body["generators"]]
            subgroups[str(name)] = subgroup_generate(group, indices)

    polygon = None if doc.get("polygon") is None else parse_polygon(doc["polygon"], group, named)

    return LoadedSpec(
        group=group,
        generator_names=tuple(parsed),
        named_elements=named,
        subgroups=subgroups,
        polygon=polygon,
    )


def decode_json(text: str, what: str = "JSON") -> Any:
    """Decode JSON text.  Every failure, also nesting too deep to decode or an
    integer past Python's digit limit, is a SpecError naming ``what``."""
    try:
        return json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise SpecError(f"invalid {what}: {exc}") from exc


def load_text(text: str) -> LoadedSpec:
    return parse_document(decode_json(text))


def document_from_catalog(entry) -> dict:
    """The stored group document of a ``catalog.CatalogEntry``, as a fresh copy."""
    from .catalog import CatalogEntry  # catalog imports this module

    _expect(entry, CatalogEntry)
    return copy.deepcopy(entry.document)
