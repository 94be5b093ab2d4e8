"""Exhaustive subgroup enumeration and Sunada pair search for small groups.

The walk works one conjugacy class of subgroups at a time.  It keeps, for
each class of subgroups whose order divides the target, the generators of a
representative and the class's whole conjugation orbit.  It starts from the
cyclic subgroups of one element per conjugacy class of elements and grows
each representative R by adjoining one element e and closing.  Every
subgroup is reached from the trivial one by adjoining one element at a time,
and every stage is a subgroup of it; conjugating such a chain moves its first
stage onto a seed and each later stage onto a growth of the representative
of the stage before, so every class is found.

Two things keep the growth step cheap without losing a class:

* For r, r' in R, <R, r e r'> = <R, e>.  So R is grown by e only when e lies
  in no double coset R f R of an element f already tried; every skipped
  growth equals one already tried.  The elements are tried in index order,
  and the first element of each double coset is never skipped, so each class
  is first reached by the same growth, in the same order, as by trying every
  element, and the ``max_subgroups`` cap trips at the same point.  R e R is
  marked one right coset R e r at a time, skipping those already marked,
  which costs |R| + |R e R| products rather than |R| + |R|^2.
* The closure of <R, e> starts from R's members and adds whole right cosets
  of R (``gassmann._closure`` with R as its base).  The seeds are the
  growths of the trivial subgroup, its default base.

Closures that grow past the target order are abandoned.  The pair search
pairs classes of equal class intersection profile (computed once per class;
smoothness is read off it).  Each orbit of pairs under simultaneous conjugacy
holds (m, v) with m the least subgroup of the two classes; dedupe keeps m with
the least member of each N_G(m)-orbit on the other class, the orbit's least pair.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .algebra import FiniteGroup, ResourceError
from .covering import PolygonSpec, _cycle_orbits
from .gassmann import (SunadaReport, Subgroup, _closure, class_intersection_profile,
                       conjugate_members, is_sunada_triple)

__all__ = [
    "SearchConfig",
    "enumerate_subgroups",
    "find_sunada_pairs",
    "simultaneous_conjugator",
]

DEFAULT_SUBGROUP_CAP = 20000


class SearchConfig(NamedTuple):
    """Search parameters: target subgroup order, an optional polygon whose
    quotients must be smooth, a cap on distinct subgroups explored, and
    whether to deduplicate pairs up to simultaneous conjugacy."""

    order: int
    require_smooth: PolygonSpec | None = None
    max_subgroups: int = DEFAULT_SUBGROUP_CAP
    dedupe: bool = True


def _mark_double_coset(group: FiniteGroup, rep: frozenset[int], e: int, tried: set[int]) -> None:
    """Add R e R to ``tried``, a union of right cosets of R = ``rep``.

    R e R is the union of the right cosets R (e r), r in R, so it is added
    one right coset at a time; a coset with e r already in ``tried`` lies in
    it whole, so ``tried`` stays a union of right cosets.
    """
    for r in rep:
        y = group.mul(e, r)
        if y not in tried:
            tried.update([group.mul(x, y) for x in rep])


def _subgroup_classes(group: FiniteGroup, order: int,
                      max_subgroups: int) -> list[list[frozenset[int]]]:
    """The conjugation orbit of each conjugacy class of subgroups whose order
    divides ``order``, with the class representative first.

    Raises ResourceError as soon as the orbits hold more than
    ``max_subgroups`` distinct subgroups; its message gives the classes and
    subgroups recorded until then.
    """
    if order < 1 or group.order % order != 0:
        return []
    if order == 1:
        return [[frozenset({group.identity})]]
    # (generators of the representative, orbit) per class
    classes: list[tuple[tuple[int, ...], list[frozenset[int]]]] = []
    seen: set[frozenset[int]] = set()

    def grow(gens: tuple[int, ...], base: frozenset[int] | None = None) -> bool:
        """Record the class of <gens> unless it is too big or already known;
        False when its order does not divide ``order``.  ``base`` is the
        subgroup generated by every generator but the last (trivial for a
        seed)."""
        members = _closure(group, gens, cap=order, base=base)
        if members is None or order % len(members) != 0:
            return False
        if members not in seen:
            orbit = [conjugate for (conjugate,) in group.conjugation_orbit([members])]
            if len(seen) + len(orbit) > max_subgroups:
                raise ResourceError(
                    f"subgroup enumeration for order {order} exceeded max_subgroups = "
                    f"{max_subgroups} (so far: {len(classes)} subgroup classes, "
                    f"{len(seen)} distinct subgroups)")
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
        rep = orbit[0]
        if not 1 < len(rep) < order:
            continue
        # <R, r e r'> = <R, e> for r, r' in R: one growth per double coset R e R.
        tried = set(rep)
        for e in usable:
            if e not in tried:
                grow(gens + (e,), rep)
                _mark_double_coset(group, rep, e, tried)
    return [orbit for _, orbit in classes]


def _classes_of_order(group: FiniteGroup, order: int,
                      max_subgroups: int) -> list[list[tuple[int, ...]]]:
    """Each class of subgroups of exactly ``order``: its sorted member tuples, sorted."""
    return [sorted(tuple(sorted(members)) for members in orbit)
            for orbit in _subgroup_classes(group, order, max_subgroups)
            if len(orbit[0]) == order]


def enumerate_subgroups(group: FiniteGroup, order: int,
                        max_subgroups: int = DEFAULT_SUBGROUP_CAP,
                        up_to_conjugacy: bool = False) -> list[Subgroup]:
    """All subgroups of the given order, sorted by member tuple.

    A non-divisor order yields an empty list.  ``up_to_conjugacy`` keeps one
    representative per conjugacy orbit (the least member tuple).  Raises
    ResourceError when the walk exceeds ``max_subgroups`` distinct subgroups.
    """
    classes = _classes_of_order(group, order, max_subgroups)
    if up_to_conjugacy:
        found = sorted(cls[0] for cls in classes)
    else:
        found = sorted(members for cls in classes for members in cls)
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

    Each pair (U, V) has U the lesser member tuple; the pairs come sorted.
    ``config.require_smooth`` keeps only classes with smooth quotients and
    ``config.dedupe`` the least pair of each simultaneous-conjugacy orbit.
    Every pair comes with its ``is_sunada_triple`` report.
    """
    return list(_sunada_pairs(group, config))


def _sunada_pairs(group: FiniteGroup,
                  config: SearchConfig) -> Iterator[tuple[Subgroup, Subgroup, SunadaReport]]:
    """The pairs of ``find_sunada_pairs``, yielded as each one is verified."""
    # Profiles and smoothness are conjugation invariants: one test per class.
    buckets: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {}
    for cls in _classes_of_order(group, config.order, config.max_subgroups):
        profile = class_intersection_profile(group, Subgroup(group, cls[0]))
        if config.require_smooth is not None and any(
                counts for _, counts in _cycle_orbits(group, profile, config.require_smooth)):
            continue
        buckets.setdefault(profile, []).append(cls)
    pairs = []
    for bucket in buckets.values():
        for first, second in combinations(bucket, 2):
            if not config.dedupe:
                pairs.extend((min(u, v), max(u, v)) for u in first for v in second)
                continue
            # Every orbit of pairs holds a pair (m, v); its least pair is m with
            # the least member of one N_G(m)-orbit on the other class.
            low, rest = sorted((first, second))
            m, m_set = low[0], frozenset(low[0])
            while rest:
                pairs.append((m, rest[0]))
                orbit = {tuple(sorted(w)) for u, w in group.conjugation_orbit([m, rest[0]])
                         if u == m_set}
                rest = [w for w in rest if w not in orbit]
    for u, v in sorted(pairs):
        su, sv = Subgroup(group, u), Subgroup(group, v)
        yield su, sv, is_sunada_triple(group, su, sv)
