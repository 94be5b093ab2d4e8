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

import json
from dataclasses import dataclass, field
from typing import Any

from .algebra import (CycleParseError, Element, FiniteGroup, Mat2, Perm,
                      SemiPair, UsageError, cycle_string, generate_group,
                      parse_cycles)
from .catalog import CatalogEntry
from .covering import PolygonSpec
from .gassmann import Subgroup, subgroup_from_members, subgroup_generate

__all__ = [
    "SpecError",
    "LoadedSpec",
    "parse_document",
    "parse_polygon",
    "load_text",
    "render_element",
    "document_from_catalog",
]

KINDS = ("permutation", "matrix2", "semidirect")


class SpecError(ValueError):
    """The document does not describe a valid group."""


@dataclass
class LoadedSpec:
    kind: str
    parameter: int
    group: FiniteGroup = field(repr=False)
    generator_names: tuple[str, ...]
    named_elements: dict[str, int]
    subgroups: dict[str, Subgroup]
    polygon: PolygonSpec | None


def _parameter_key(kind: str) -> str:
    return "degree" if kind == "permutation" else "modulus"


def _parse_element(kind: str, parameter: int, raw: Any, where: str) -> Element:
    try:
        if kind == "permutation":
            if not isinstance(raw, str):
                raise SpecError(f"{where}: permutation elements are cycle strings")
            return parse_cycles(raw, parameter)
        if kind == "matrix2":
            rows = [[int(x) for x in row] for row in raw]
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise SpecError(f"{where}: matrix elements are 2x2 integer arrays")
            return Mat2(parameter, ((rows[0][0], rows[0][1]), (rows[1][0], rows[1][1])))
        if kind == "semidirect":
            u, v = (int(x) for x in raw)
            return SemiPair(parameter, u, v)
    except (CycleParseError, UsageError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"unknown kind {kind!r}")


def render_element(kind: str, element: Element) -> Any:
    """The JSON form of one element, inverse of ``_parse_element``."""
    if kind == "permutation":
        assert isinstance(element, Perm)
        return cycle_string(element)
    if kind == "matrix2":
        assert isinstance(element, Mat2)
        return [list(row) for row in element.entries]
    if kind == "semidirect":
        assert isinstance(element, SemiPair)
        return [element.u, element.v]
    raise SpecError(f"unknown kind {kind!r}")


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
    """A polygon object, its cycle words evaluated over the named generators."""
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
        return PolygonSpec(int(body["edge_pairs"]), tuple(cycles))
    except (UsageError, TypeError, ValueError) as exc:
        raise SpecError(f"polygon: {exc}") from exc


def parse_document(doc: Any) -> LoadedSpec:
    """Build the group, named subgroups, and polygon described by a document."""
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
    param_key = _parameter_key(kind)
    if param_key not in doc:
        raise SpecError(f"missing {param_key!r} for kind {kind!r}")
    try:
        parameter = int(doc[param_key])
    except (TypeError, ValueError):
        raise SpecError(f"{param_key!r} must be an integer") from None

    generators = doc.get("generators")
    if not isinstance(generators, dict) or not generators:
        raise SpecError("'generators' must be a non-empty object of name -> element")
    parsed: dict[str, Element] = {}
    for name, raw in generators.items():
        parsed[str(name)] = _parse_element(kind, parameter, raw, f"generator {name!r}")
    try:
        group = generate_group(list(parsed.values()))
    except UsageError as exc:
        raise SpecError(str(exc)) from exc
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
        kind=kind,
        parameter=parameter,
        group=group,
        generator_names=tuple(parsed),
        named_elements=named,
        subgroups=subgroups,
        polygon=polygon,
    )


def load_text(text: str) -> LoadedSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    return parse_document(doc)


def _kind_of_entry(entry: CatalogEntry) -> tuple[str, int]:
    sample = entry.group.element(0)
    if isinstance(sample, Perm):
        return "permutation", sample.degree
    if isinstance(sample, Mat2):
        return "matrix2", sample.modulus
    return "semidirect", sample.modulus


def document_from_catalog(entry: CatalogEntry) -> dict:
    """Export a catalog entry as a group document (round-trip safe)."""
    kind, parameter = _kind_of_entry(entry)
    doc: dict[str, Any] = {
        "kind": kind,
        _parameter_key(kind): parameter,
        "generators": {
            name: render_element(kind, entry.group.element(e))
            for name, e in entry.generator_labels
        },
        "subgroups": {
            name: {"elements": [render_element(kind, entry.group.element(i))
                                for i in sub.members]}
            for name, sub in entry.subgroups.items()
        },
        "polygon": {
            "edge_pairs": entry.polygon.edge_pairs,
            "cycles": [{"label": label, "word": word}
                       for label, word in entry.polygon_words],
        },
    }
    return doc
