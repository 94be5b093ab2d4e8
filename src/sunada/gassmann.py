"""Subgroups, class intersection profiles, and Sunada triple verdicts.

Two subgroups U, V of a finite group G are Gassmann equivalent when every
conjugacy class of G meets U and V in the same number of elements.  A Sunada
triple (G, U, V) is a Gassmann pair that is not conjugate in G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .algebra import FiniteGroup, UsageError, element_key

__all__ = [
    "Subgroup",
    "subgroup_generate",
    "subgroup_from_members",
    "full_subgroup",
    "trivial_subgroup",
    "conjugate_members",
    "class_intersection_profile",
    "are_gassmann",
    "are_conjugate_subgroups",
    "SunadaReport",
    "is_sunada_triple",
]


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteGroup, stored as a sorted tuple of element indices."""

    parent: FiniteGroup = field(repr=False)
    members: tuple[int, ...]
    member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.members))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, element_index: int) -> bool:
        return element_index in self.member_set


def _check_indices(group: FiniteGroup, indices: Iterable[int]) -> None:
    n = group.order
    for i in indices:
        if not 0 <= i < n:
            raise UsageError(f"element index {i} out of range for a group of order {n}")


def check_parent(group: FiniteGroup, sub: Subgroup) -> None:
    """Raise unless ``sub`` was built over exactly this group instance."""
    if sub.parent is not group:
        raise UsageError("subgroup belongs to a different group instance")


def _closure(group: FiniteGroup, generators: Iterable[int],
             cap: int | None = None) -> frozenset[int] | None:
    """Members of the subgroup generated by ``generators``, or None as soon as
    it would have more than ``cap`` members."""
    gens = sorted(set(generators))
    members = {group.identity, *gens}
    work = sorted(members)
    for x in work:
        for g in gens:
            p = group.mul(x, g)
            if p not in members:
                if cap is not None and len(members) >= cap:
                    return None
                members.add(p)
                work.append(p)
    return frozenset(members)


def subgroup_generate(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Subgroup generated by the given element indices (empty list gives the
    trivial subgroup)."""
    gens = list(generators)
    _check_indices(group, gens)
    return Subgroup(group, tuple(sorted(_closure(group, gens))))


def subgroup_from_members(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Subgroup from an explicit member list, verified closed under the product."""
    sorted_members = tuple(sorted(set(members)))
    _check_indices(group, sorted_members)
    member_set = set(sorted_members)
    if group.identity not in member_set:
        raise UsageError("member list does not contain the identity")
    for x in sorted_members:
        for y in sorted_members:
            if group.mul(x, y) not in member_set:
                raise UsageError("member list is not closed under the group product")
    return Subgroup(group, sorted_members)


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def conjugate_members(group: FiniteGroup, members: Iterable[int], g: int) -> frozenset[int]:
    """The set {g x g^-1 : x in members}."""
    ginv = group.inv(g)
    return frozenset(group.mul(group.mul(g, x), ginv) for x in members)


def class_intersection_profile(group: FiniteGroup, sub: Subgroup) -> tuple[int, ...]:
    """Count of subgroup members in each conjugacy class, in class order."""
    check_parent(group, sub)
    return tuple(sum(1 for x in cls if x in sub.member_set)
                 for cls in group.conjugacy_classes())


def are_gassmann(group: FiniteGroup, u: Subgroup, v: Subgroup) -> bool:
    """True iff U and V meet every conjugacy class in the same count."""
    return class_intersection_profile(group, u) == class_intersection_profile(group, v)


def are_conjugate_subgroups(group: FiniteGroup, u: Subgroup, v: Subgroup) -> int | None:
    """Index of the first g (in element key order) with g U g^-1 = V, or None.

    Equal subgroups short-circuit to the identity.  V is conjugate to U iff it
    lies in U's conjugation orbit, which is computed exactly, so None is a
    proof for the enumerated group.  Only when it does lie there are the
    candidates scanned in the canonical element order, so the witness does
    not depend on which generators happened to build the group.
    """
    check_parent(group, u)
    check_parent(group, v)
    if u.members == v.members:
        return group.identity
    target = v.member_set
    if len(u.members) != len(v.members) or (target,) not in group.conjugation_orbit([u.members]):
        return None
    return next(g for g in sorted(range(group.order), key=lambda i: element_key(group.element(i)))
                if conjugate_members(group, u.members, g) == target)


@dataclass(frozen=True)
class SunadaReport:
    """Verdict for a candidate triple: per-class profiles, Gassmann equality,
    a conjugator when one exists, and the combined Sunada verdict."""

    group_order: int
    order_u: int
    order_v: int
    class_sizes: tuple[int, ...]
    profile_u: tuple[int, ...]
    profile_v: tuple[int, ...]
    gassmann: bool
    conjugator: int | None
    conjugator_repr: str | None
    is_sunada_triple: bool

    @property
    def index_u(self) -> int:
        return self.group_order // self.order_u

    @property
    def index_v(self) -> int:
        return self.group_order // self.order_v

    def to_json_dict(self) -> dict:
        conj = None
        if self.conjugator is not None:
            conj = {"index": self.conjugator, "element": self.conjugator_repr}
        return {
            "group_order": self.group_order,
            "subgroup_orders": [self.order_u, self.order_v],
            "indices": [self.index_u, self.index_v],
            "classes": [
                {"index": i, "size": size, "count_u": cu, "count_v": cv}
                for i, (size, cu, cv) in enumerate(
                    zip(self.class_sizes, self.profile_u, self.profile_v))
            ],
            "gassmann": self.gassmann,
            "conjugator": conj,
            "is_sunada_triple": self.is_sunada_triple,
        }


def is_sunada_triple(group: FiniteGroup, u: Subgroup, v: Subgroup) -> SunadaReport:
    """Full verdict for (G, U, V).

    The conjugator search only runs when the profiles agree, because conjugate
    subgroups are always Gassmann equivalent.
    """
    profile_u = class_intersection_profile(group, u)
    profile_v = class_intersection_profile(group, v)
    gassmann = profile_u == profile_v
    conjugator = are_conjugate_subgroups(group, u, v) if gassmann else None
    return SunadaReport(
        group_order=group.order,
        order_u=u.order,
        order_v=v.order,
        class_sizes=tuple(len(cls) for cls in group.conjugacy_classes()),
        profile_u=profile_u,
        profile_v=profile_v,
        gassmann=gassmann,
        conjugator=conjugator,
        conjugator_repr=None if conjugator is None else str(group.element(conjugator)),
        is_sunada_triple=gassmann and conjugator is None,
    )
