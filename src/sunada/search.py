"""Exhaustive subgroup enumeration and Sunada pair search for small groups.

Subgroups of a target order are found by growing cyclic subgroups: every
subgroup is reachable by repeatedly adjoining one element and closing, and
every intermediate stage is itself a subgroup of the target, so the lattice
walk below is complete.  Sizes are kept small by abandoning any closure that
grows past the target order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteGroup, ResourceError, element_order
from .covering import PolygonSpec, smoothness
from .gassmann import (SunadaReport, Subgroup, _closure, class_intersection_profile,
                       conjugate_members, is_sunada_triple)

__all__ = [
    "SearchConfig",
    "enumerate_subgroups",
    "find_sunada_pairs",
    "simultaneous_conjugator",
]

DEFAULT_SUBGROUP_CAP = 20000


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters: target subgroup order, an optional polygon whose
    quotients must be smooth, a cap on distinct subgroups explored, and
    whether to deduplicate pairs up to simultaneous conjugacy."""

    order: int
    require_smooth: PolygonSpec | None = None
    max_subgroups: int = DEFAULT_SUBGROUP_CAP
    dedupe: bool = True


def enumerate_subgroups(group: FiniteGroup, order: int,
                        max_subgroups: int = DEFAULT_SUBGROUP_CAP,
                        up_to_conjugacy: bool = False) -> list[Subgroup]:
    """All subgroups of the given order, sorted by member tuple.

    A non-divisor order yields an empty list.  ``up_to_conjugacy`` keeps one
    representative per conjugacy orbit (the least member tuple).  Raises
    ResourceError when the walk exceeds ``max_subgroups`` distinct subgroups.
    """
    if order < 1:
        return []
    if group.order % order != 0:
        return []
    identity = group.identity
    if order == 1:
        return [Subgroup(group, (identity,))]

    def admissible(size: int) -> bool:
        return order % size == 0

    seen: set[frozenset[int]] = set()
    frontier: list[frozenset[int]] = []

    def record(members: frozenset[int]) -> None:
        if members in seen:
            return
        if len(seen) >= max_subgroups:
            raise ResourceError(
                f"subgroup enumeration exceeded max_subgroups = {max_subgroups}")
        seen.add(members)
        if len(members) < order:
            frontier.append(members)

    # Elements of non-dividing order cannot lie in a subgroup of this order.
    usable = [e for e in range(group.order)
              if admissible(element_order(group.element(e)))]
    for e in usable:
        cyclic = {identity}
        x = e
        while x != identity:
            cyclic.add(x)
            x = group.mul(x, e)
        if admissible(len(cyclic)):
            record(frozenset(cyclic))

    head = 0
    while head < len(frontier):
        base = frontier[head]
        head += 1
        for e in usable:
            if e in base:
                continue
            grown = _closure(group, base | {e}, cap=order)
            if grown is not None and admissible(len(grown)):
                record(grown)

    found = sorted((tuple(sorted(members)) for members in seen
                    if len(members) == order))
    subgroups = [Subgroup(group, members) for members in found]
    if up_to_conjugacy:
        classes = _class_ids(group, subgroups)
        subgroups = [sub for pos, sub in enumerate(subgroups) if classes[pos] == pos]
    return subgroups


def _class_ids(group: FiniteGroup, subgroups: list[Subgroup]) -> list[int]:
    """For each subgroup, the position of the first listed subgroup conjugate
    to it; each new class marks its whole conjugation orbit as covered."""
    first: dict[frozenset[int], int] = {}
    for pos, sub in enumerate(subgroups):
        if sub.member_set not in first:
            for (conjugate,) in group.conjugation_orbit([sub.members]):
                first[conjugate] = pos
    return [first[sub.member_set] for sub in subgroups]


def simultaneous_conjugator(group: FiniteGroup, pair1: tuple[Subgroup, Subgroup],
                            pair2: tuple[Subgroup, Subgroup]) -> int | None:
    """First g with {g U1 g^-1, g V1 g^-1} = {U2, V2} as unordered pairs, or None."""
    u1, v1 = pair1
    u2, v2 = pair2
    targets = (u2.member_set, v2.member_set)
    for g in range(group.order):
        cu = conjugate_members(group, u1.members, g)
        if cu == targets[0]:
            if conjugate_members(group, v1.members, g) == targets[1]:
                return g
        elif cu == targets[1]:
            if conjugate_members(group, v1.members, g) == targets[0]:
                return g
    return None


def find_sunada_pairs(group: FiniteGroup,
                      config: SearchConfig) -> list[tuple[Subgroup, Subgroup, SunadaReport]]:
    """All Gassmann equivalent, non-conjugate subgroup pairs of the target order.

    Pairs are scanned in sorted member order, optionally filtered so both
    quotients are smooth under ``config.require_smooth``, and deduplicated up
    to simultaneous conjugacy when ``config.dedupe`` is set.  Every returned
    report re-verifies the pair as a Sunada triple.
    """
    subgroups = enumerate_subgroups(group, config.order, config.max_subgroups)
    if config.require_smooth is not None:
        subgroups = [sub for sub in subgroups
                     if all(smoothness(group, sub, config.require_smooth))]
    profiles = [class_intersection_profile(group, sub) for sub in subgroups]
    classes = _class_ids(group, subgroups)
    results: list[tuple[Subgroup, Subgroup, SunadaReport]] = []
    covered: set[tuple[frozenset[int], ...]] = set()
    for i in range(len(subgroups)):
        for j in range(i + 1, len(subgroups)):
            # Subgroups of one class are conjugate, so never a Sunada pair.
            if profiles[i] != profiles[j] or classes[i] == classes[j]:
                continue
            pair = (subgroups[i].member_set, subgroups[j].member_set)
            if pair in covered:
                continue
            report = is_sunada_triple(group, subgroups[i], subgroups[j])
            if not report.is_sunada_triple:
                continue
            if config.dedupe:
                # Pairs count as unordered, so cover both orders of each image.
                for image in group.conjugation_orbit(pair):
                    covered.update((image, image[::-1]))
            results.append((subgroups[i], subgroups[j], report))
    return results
