"""Exhaustive subgroup enumeration and Sunada pair search for small groups.

The walk works one conjugacy class of subgroups at a time.  It keeps, for
each class of subgroups whose order divides the target, the generators of a
representative and the class's whole conjugation orbit.  It starts from the
cyclic subgroups of one element per conjugacy class of elements and grows
each representative by adjoining one element and closing.  Every subgroup is
reached from the trivial one by adjoining one element at a time, and every
stage is a subgroup of it; conjugating such a chain moves its first stage
onto a seed and each later stage onto a growth of the representative of the
stage before, so every class is found.  Closures that grow past the target
order are abandoned, and conjugation invariants (class intersection
profiles, smoothness) are computed once per class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteGroup, ResourceError
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


def _subgroup_classes(group: FiniteGroup, order: int,
                      max_subgroups: int) -> list[list[frozenset[int]]]:
    """The conjugation orbit of each conjugacy class of subgroups whose order
    divides ``order``, with the class representative first.

    Raises ResourceError as soon as the orbits hold more than
    ``max_subgroups`` distinct subgroups.
    """
    if order < 1 or group.order % order != 0:
        return []
    if order == 1:
        return [[frozenset({group.identity})]]
    # (generators of the representative, orbit) per class
    classes: list[tuple[tuple[int, ...], list[frozenset[int]]]] = []
    seen: set[frozenset[int]] = set()

    def grow(gens: tuple[int, ...]) -> bool:
        """Record the class of <gens> unless it is too big or already known;
        False when its order does not divide ``order``."""
        members = _closure(group, gens, cap=order)
        if members is None or order % len(members) != 0:
            return False
        if members not in seen:
            orbit = [conjugate for (conjugate,) in group.conjugation_orbit([members])]
            if len(seen) + len(orbit) > max_subgroups:
                raise ResourceError(
                    f"subgroup enumeration exceeded max_subgroups = {max_subgroups}")
            seen.update(orbit)
            classes.append((gens, orbit))
        return True

    # Element order is a class invariant, so each element class either seeds
    # one cyclic class or holds no element of any subgroup of this order.
    usable: list[int] = []
    for cls in group.conjugacy_classes():
        if grow(cls[:1]):
            usable.extend(cls)
    usable.sort()
    # The trivial subgroup is not grown: its one-element growths are the seeds.
    for gens, orbit in classes:
        if 1 < len(orbit[0]) < order:
            for e in usable:
                if e not in orbit[0]:
                    grow(gens + (e,))
    return [orbit for _, orbit in classes]


def enumerate_subgroups(group: FiniteGroup, order: int,
                        max_subgroups: int = DEFAULT_SUBGROUP_CAP,
                        up_to_conjugacy: bool = False) -> list[Subgroup]:
    """All subgroups of the given order, sorted by member tuple.

    A non-divisor order yields an empty list.  ``up_to_conjugacy`` keeps one
    representative per conjugacy orbit (the least member tuple).  Raises
    ResourceError when the walk exceeds ``max_subgroups`` distinct subgroups.
    """
    orbits = [[tuple(sorted(members)) for members in orbit]
              for orbit in _subgroup_classes(group, order, max_subgroups)
              if len(orbit[0]) == order]
    if up_to_conjugacy:
        found = sorted(min(orbit) for orbit in orbits)
    else:
        found = sorted(members for orbit in orbits for members in orbit)
    return [Subgroup(group, members) for members in found]


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
    # Profiles and smoothness are conjugation invariants: one test per class.
    entries = []
    for cid, orbit in enumerate(_subgroup_classes(group, config.order, config.max_subgroups)):
        if len(orbit[0]) != config.order:
            continue
        rep = Subgroup(group, tuple(sorted(orbit[0])))
        if config.require_smooth is not None and not all(
                smoothness(group, rep, config.require_smooth)):
            continue
        profile = class_intersection_profile(group, rep)
        entries.extend((tuple(sorted(members)), cid, profile) for members in orbit)
    entries.sort()
    subgroups = [Subgroup(group, members) for members, _, _ in entries]
    classes = [cid for _, cid, _ in entries]
    profiles = [profile for _, _, profile in entries]
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
