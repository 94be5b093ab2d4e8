"""Polygon gluing data and combinatorial invariants of the quotient surfaces.

A polygon spec records a 2N-gon whose edges are identified in N pairs, with
vertex cycles labeled by group elements.  For a subgroup U of G the quotient
over U is analysed combinatorially: smoothness over each vertex cycle, exact
orbifold Euler characteristic, cone points from coset orbit counting, and the
genus when the underlying Euler characteristic is an even integer.

All Euler characteristic arithmetic is exact (fractions.Fraction); this module
must stay free of floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FiniteGroup, UsageError, element_order
from .gassmann import Subgroup, check_parent
from .schreier import coset_action, coset_table

__all__ = [
    "PolygonSpec",
    "ConePoint",
    "CoveringReport",
    "smoothness",
    "orbifold_euler",
    "cone_points",
    "covering_report",
    "covering_report_json",
]


@dataclass(frozen=True)
class PolygonSpec:
    """2N-gon with edges identified in ``edge_pairs`` pairs and vertex cycles
    given as (label, element index) in boundary order."""

    edge_pairs: int
    cycles: tuple[tuple[str, int], ...]

    def __post_init__(self):
        cycles = tuple((str(label), int(e)) for label, e in self.cycles)
        object.__setattr__(self, "cycles", cycles)
        if self.edge_pairs < 1:
            raise UsageError(f"edge pair count must be >= 1, got {self.edge_pairs}")
        if not cycles:
            raise UsageError("a polygon spec needs at least one vertex cycle")
        labels = [label for label, _ in cycles]
        if len(set(labels)) != len(labels):
            raise UsageError("vertex cycle labels must be unique")


@dataclass(frozen=True)
class ConePoint:
    label: str
    order: int
    multiplicity: int


@dataclass(frozen=True)
class CoveringReport:
    index: int
    cycle_labels: tuple[str, ...]
    cycle_orders: tuple[int, ...]
    smooth_cycles: tuple[bool, ...]
    smooth: bool
    cone_points: tuple[ConePoint, ...]
    chi_orb: Fraction
    chi_top: Fraction
    genus: int | None
    note: str | None


def _check_cycles(group: FiniteGroup, spec: PolygonSpec) -> None:
    for label, e in spec.cycles:
        if not 0 <= e < group.order:
            raise UsageError(f"cycle {label!r} refers to unknown element index {e}")


def _cycle_orders(group: FiniteGroup, spec: PolygonSpec) -> tuple[int, ...]:
    return tuple(element_order(group.element(e)) for _, e in spec.cycles)


def smoothness(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> tuple[bool, ...]:
    """Per-cycle smoothness of the quotient over each vertex cycle.

    The quotient is smooth over the cycle of g iff g is the identity or no
    conjugacy class of g^r for 0 < r < ord(g) meets the subgroup.
    """
    check_parent(group, sub)
    _check_cycles(group, spec)
    group.conjugacy_classes()
    flags: list[bool] = []
    for _, e in spec.cycles:
        if e == group.identity:
            flags.append(True)
            continue
        order = element_order(group.element(e))
        smooth = True
        power = e
        for _ in range(1, order):
            cls = group.conjugacy_classes()[group.class_index(power)]
            if any(x in sub.member_set for x in cls):
                smooth = False
                break
            power = group.mul(power, e)
        flags.append(smooth)
    return tuple(flags)


def orbifold_euler(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> Fraction:
    """Exact orbifold Euler characteristic of the quotient over the subgroup:
    [G:U] * (1 - N + sum over cycles of 1/ord)."""
    check_parent(group, sub)
    _check_cycles(group, spec)
    per_polygon = Fraction(1 - spec.edge_pairs)
    for order in _cycle_orders(group, spec):
        per_polygon += Fraction(1, order)
    return sub.index * per_polygon


def cone_points(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> tuple[ConePoint, ...]:
    """Cone points of the quotient, from orbit counting on the right cosets.

    For the cycle of g with ord(g) = m, the points of the quotient over that
    vertex correspond to orbits of coset -> coset * g; an orbit of size d < m
    is a cone point of order m / d.  Orbits of full size m are smooth points.
    Points are grouped per cycle and cone order, with multiplicities.
    """
    check_parent(group, sub)
    _check_cycles(group, spec)
    table = coset_table(group, sub)
    points: list[ConePoint] = []
    for (label, e), order in zip(spec.cycles, _cycle_orders(group, spec)):
        action = coset_action(group, table, e)
        seen = [False] * len(action)
        orbit_counts: dict[int, int] = {}
        for start in range(len(action)):
            if seen[start]:
                continue
            size = 0
            v = start
            while not seen[v]:
                seen[v] = True
                size += 1
                v = action[v]
            if size < order:
                cone_order = order // size
                orbit_counts[cone_order] = orbit_counts.get(cone_order, 0) + 1
        for cone_order in sorted(orbit_counts):
            points.append(ConePoint(label, cone_order, orbit_counts[cone_order]))
    return tuple(points)


def covering_report(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> CoveringReport:
    """Assemble the combinatorial picture of the quotient over one subgroup.

    chi_top = chi_orb + sum over cone points of (1 - 1/order) recovers the
    Euler characteristic of the underlying surface; the genus (2 - chi_top)/2
    is reported only when chi_top is an even integer.
    """
    flags = smoothness(group, sub, spec)
    cones = cone_points(group, sub, spec)
    chi_orb = orbifold_euler(group, sub, spec)
    chi_top = chi_orb
    for cone in cones:
        chi_top += cone.multiplicity * (1 - Fraction(1, cone.order))
    genus: int | None = None
    note: str | None = None
    if chi_top.denominator == 1 and chi_top.numerator % 2 == 0:
        genus = (2 - int(chi_top)) // 2
    else:
        note = (f"underlying Euler characteristic {chi_top} is not an even "
                "integer, so no closed orientable genus is defined")
    return CoveringReport(
        index=sub.index,
        cycle_labels=tuple(label for label, _ in spec.cycles),
        cycle_orders=_cycle_orders(group, spec),
        smooth_cycles=flags,
        smooth=all(flags),
        cone_points=cones,
        chi_orb=chi_orb,
        chi_top=chi_top,
        genus=genus,
        note=note,
    )


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def covering_report_json(report: CoveringReport) -> dict:
    return {
        "index": report.index,
        "cycles": [
            {"label": label, "order": order, "smooth": smooth}
            for label, order, smooth in zip(
                report.cycle_labels, report.cycle_orders, report.smooth_cycles)
        ],
        "smooth": report.smooth,
        "cone_points": [
            {"label": c.label, "order": c.order, "multiplicity": c.multiplicity}
            for c in report.cone_points
        ],
        "chi_orb": _fraction_json(report.chi_orb),
        "chi_top": _fraction_json(report.chi_top),
        "genus": report.genus,
        "note": report.note,
    }
