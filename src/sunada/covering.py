"""Polygon gluing data and combinatorial invariants of the quotient surfaces.

A polygon spec records a 2N-gon whose edges are identified in N pairs, with
vertex cycles labeled by group elements.  For a subgroup U of G the quotient
over U is analysed combinatorially: smoothness over each vertex cycle, exact
orbifold Euler characteristic, cone points, and the genus when the underlying
Euler characteristic is an even integer of at most 2.

Smoothness and cone points come from the orbits of each cycle element g, of
order m, on the right cosets U\\G, read off the class intersection profile of
U.  It gives the permutation character fix(x) = [G:U] |class(x) & U| /
|class(x)| of U\\G, so Gassmann equivalent subgroups share them (Sunada,
Ann. Math. 1985).  g has N_d = (fix(g^d) - sum of e N_e over e | d, e < d) / d
orbits of size d, for each d | m in ascending order; an orbit of size d < m is
a cone point of order m / d.

All Euler characteristic arithmetic is exact and in integers: with L the lcm
of the cycle orders, L chi_orb and L chi_top are integers, since every cone
order m / d divides its cycle's order m, which divides L.  Each is turned into
one fractions.Fraction at the end.  This module must stay free of floating
point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .algebra import FiniteGroup, UsageError, _expect, _integers
from .gassmann import Subgroup, class_intersection_profile

if TYPE_CHECKING:  # fractions, with decimal, loads only where a Fraction is built
    from fractions import Fraction


class PolygonSpec(NamedTuple("PolygonSpec", [("edge_pairs", int),
                                             ("cycles", tuple[tuple[str, int], ...])])):
    """2N-gon with edges identified in ``edge_pairs`` pairs and vertex cycles
    given as (label, element index) in boundary order."""

    __slots__ = ()

    def __new__(cls, edge_pairs: int, cycles):
        (edge_pairs,) = _integers((edge_pairs,), "the edge pair count")
        try:
            cycles = [(str(label), e) for label, e in cycles]
        except (TypeError, ValueError):
            raise UsageError(f"vertex cycles must be (label, element) pairs: {cycles!r}") from None
        cycles = tuple(zip((label for label, _ in cycles),
                           _integers((e for _, e in cycles), "vertex cycle elements")))
        if edge_pairs < 1:
            raise UsageError(f"edge pair count must be >= 1, got {edge_pairs}")
        if not cycles:
            raise UsageError("a polygon spec needs at least one vertex cycle")
        labels = [label for label, _ in cycles]
        if len(set(labels)) != len(labels):
            raise UsageError("vertex cycle labels must be unique")
        return super().__new__(cls, edge_pairs, cycles)


class ConePoint(NamedTuple):
    label: str
    order: int
    multiplicity: int


class CoveringReport(NamedTuple):
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

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "cycles": [
                {"label": label, "order": order, "smooth": smooth}
                for label, order, smooth in zip(
                    self.cycle_labels, self.cycle_orders, self.smooth_cycles)
            ],
            "smooth": self.smooth,
            "cone_points": [
                {"label": c.label, "order": c.order, "multiplicity": c.multiplicity}
                for c in self.cone_points
            ],
            "chi_orb": _fraction_json(self.chi_orb),
            "chi_top": _fraction_json(self.chi_top),
            "genus": self.genus,
            "note": self.note,
        }


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _cycle_orbits(group: FiniteGroup, profile: tuple[int, ...],
                  spec: PolygonSpec) -> list[tuple[int, dict[int, int]]]:
    """(m, {d: N_d}) per cycle of order m: the N_d > 0 orbits of size d < m
    on U\\G, by the formula of the module docstring, for the U with class
    intersection ``profile``."""
    _expect(spec, PolygonSpec)
    for label, e in spec.cycles:
        if not 0 <= e < group.order:
            raise UsageError(f"cycle {label!r} refers to unknown element index {e}")
    classes = group.conjugacy_classes()
    index = group.order // sum(profile)
    orbits = []
    for _, e in spec.cycles:
        # powers[d - 1] is e^d; the list ends at the identity, so its length
        # is the order of e.
        powers = [e]
        while powers[-1] != group.identity:
            powers.append(group.mul(powers[-1], e))
        order = len(powers)
        counts: dict[int, int] = {}
        for d in range(1, order):
            if order % d == 0:
                c = group.class_index(powers[d - 1])
                fixed = index * profile[c] // len(classes[c])
                n = (fixed - sum(k * counts[k] for k in counts if d % k == 0)) // d
                if n:
                    counts[d] = n
        orbits.append((order, counts))
    return orbits


def _cone_points(spec: PolygonSpec, orbits) -> tuple[ConePoint, ...]:
    return tuple(ConePoint(label, order // d, counts[d])
                 for (label, _), (order, counts) in zip(spec.cycles, orbits)
                 for d in sorted(counts, reverse=True))


def smoothness(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> tuple[bool, ...]:
    """Per-cycle smoothness of the quotient over each vertex cycle.

    The cycle of g, of order m, is smooth iff g has no orbit of size d < m on
    U\\G: N_d = (fix(g^d) - sum of e N_e over e | d, e < d) / d is 0 for each
    such d | m, with fix(x) = [G:U] |class(x) & U| / |class(x)|.  Both
    divisions are exact: fix(x) counts the cosets that x fixes, and as orbit
    sizes divide m, those g^d fixes fill its orbits of the sizes e | d.
    """
    orbits = _cycle_orbits(group, class_intersection_profile(group, sub), spec)
    return tuple(not counts for _, counts in orbits)


def cone_points(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> tuple[ConePoint, ...]:
    """Cone points of the quotient: the N_d orbits of size d < m of a cycle g
    of order m on U\\G are cone points of order m / d, with
    N_d = (fix(g^d) - sum of e N_e over e | d, e < d) / d, exact as in
    ``smoothness``.  Points are grouped per cycle and cone order, with
    multiplicities, in ascending cone order.
    """
    return _cone_points(spec, _cycle_orbits(group, class_intersection_profile(group, sub), spec))


def covering_report(group: FiniteGroup, sub: Subgroup, spec: PolygonSpec) -> CoveringReport:
    """Assemble the combinatorial picture of the quotient over one subgroup.

    The exact orbifold Euler characteristic is
    chi_orb = [G:U] * (1 - N + sum over cycles of 1/ord), and
    chi_top = chi_orb + sum over cone points of (1 - 1/order) recovers the
    Euler characteristic of the underlying surface.  Both are summed as
    integer multiples of 1/L, for L the lcm of the cycle orders, which every
    cone order divides.  The quotient is connected, so a closed orientable
    one has chi_top <= 2: the genus (2 - chi_top)/2 is reported only when
    chi_top is an even integer of at most 2, and otherwise the note says why
    there is none.
    """
    from fractions import Fraction
    orbits = _cycle_orbits(group, class_intersection_profile(group, sub), spec)
    orders = tuple(order for order, _ in orbits)
    flags = tuple(not counts for _, counts in orbits)
    cones = _cone_points(spec, orbits)
    lcm = math.lcm(*orders)
    orb = sub.index * ((1 - spec.edge_pairs) * lcm + sum(lcm // m for m in orders))
    top = orb + sum(cone.multiplicity * (lcm - lcm // cone.order) for cone in cones)
    chi_top = Fraction(top, lcm)
    genus: int | None = None
    note: str | None = None
    if top % (2 * lcm):
        note = (f"underlying Euler characteristic {chi_top} is not an even "
                "integer, so no closed orientable genus is defined")
    elif top > 2 * lcm:
        note = (f"underlying Euler characteristic {chi_top} is above 2, so the "
                "polygon data describe no closed surface")
    else:
        genus = 1 - top // (2 * lcm)
    return CoveringReport(
        index=sub.index,
        cycle_labels=tuple(label for label, _ in spec.cycles),
        cycle_orders=orders,
        smooth_cycles=flags,
        smooth=all(flags),
        cone_points=cones,
        chi_orb=Fraction(orb, lcm),
        chi_top=chi_top,
        genus=genus,
        note=note,
    )
