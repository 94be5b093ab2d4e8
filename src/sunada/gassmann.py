"""Subgroups, class intersection profiles, and Sunada triple verdicts.

Two subgroups U, V of a finite group G are Gassmann equivalent when every
conjugacy class of G meets U and V in the same number of elements.  A Sunada
triple (G, U, V) is a Gassmann pair that is not conjugate in G.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .algebra import FiniteGroup, UsageError, _expect, _integers

__all__ = [
    "Subgroup",
    "subgroup_generate",
    "subgroup_from_members",
    "class_intersection_profile",
    "are_conjugate_subgroups",
    "SunadaReport",
    "is_sunada_triple",
]


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a sorted tuple of element indices.

    Immutable.  Equality and hash are over (parent, members); ``member_set``
    holds the members as a frozenset for membership tests.  The constructor
    checks in O(|U|) that the members are strictly increasing int indices
    into the parent that hold its identity and whose count divides its
    order, and refuses them with UsageError otherwise: a coset walk over
    members without the identity never ends.  It does not check closure;
    ``subgroup_from_members`` builds from an arbitrary list, checked.
    """

    __slots__ = ("parent", "members", "member_set")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        _expect(parent, FiniteGroup)
        _expect(members, tuple)
        member_set = frozenset(members) if all(map(int.__instancecheck__, members)) else None
        n = parent.order
        if not (member_set and parent.identity in member_set and n % len(members) == 0
                and 0 <= members[0] and members[-1] < n and list(members) == sorted(member_set)):
            raise UsageError("subgroup members must be strictly increasing indices below "
                             f"{n} that hold the identity {parent.identity}, and their count "
                             f"must divide {n}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "member_set", member_set)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"Subgroup is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.members) == (other.parent, other.members)

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __repr__(self) -> str:
        return f"Subgroup(members={self.members!r})"

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _check_indices(group: FiniteGroup, indices: Iterable[int]) -> tuple[int, ...]:
    """The indices as ints, read through ``operator.index`` before anything
    sorts or compares them; UsageError unless each indexes an element."""
    _expect(group, FiniteGroup)
    indices = _integers(indices, "element indices")
    n = group.order
    for i in indices:
        if not 0 <= i < n:
            raise UsageError(f"element index {i} out of range for a group of order {n}")
    return indices


def check_parent(group: FiniteGroup, sub: Subgroup) -> None:
    """Raise unless ``sub`` is a subgroup built over exactly this group instance."""
    _expect(sub, Subgroup)
    if sub.parent is not group:
        raise UsageError("subgroup belongs to a different group instance")


def _closure(group: FiniteGroup, generators: Iterable[int], cap: int | None = None,
             base: frozenset[int] | None = None) -> frozenset[int] | None:
    """Members of the subgroup generated by ``generators``, or None as soon as
    it would have more than ``cap`` members.

    The closure grows by whole right cosets of ``base`` (Dimino's coset
    extension), the member set of a subgroup of the result such as the one
    generated by every generator but the last; by default the trivial
    subgroup.  The base is closed, so only coset representatives are
    multiplied by the generators, and each new coset costs one product per
    base member.  The products are formed in key space
    (``FiniteGroup._key_space``), from keys read once: the generators' and
    the base's per closure, a representative's as it is found.  No right
    multiplier is built: in the subgroup walk a base averages about 5
    members and a closure makes few products per generator, so building
    one costs more than it saves.
    """
    keys, index, (product, _, _, _) = group._key_space()
    gens = list(map(keys.__getitem__, sorted(set(generators))))
    members = {group.identity} if base is None else set(base)
    size = len(members)
    if cap is not None and size > cap:
        return None
    others = [keys[b] for b in members if b != group.identity]
    reps = [keys[group.identity]]  # the representatives' keys
    for y in reps:
        for g in gens:
            yg = product(y, g)
            z = index[yg]
            if z not in members:
                # Right cosets of the base are disjoint: all of B z is new.
                if cap is not None and len(members) + size > cap:
                    return None
                members.add(z)
                if others:
                    members.update([index[product(b, yg)] for b in others])
                reps.append(yg)
    return frozenset(members)


def subgroup_generate(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Subgroup generated by the given element indices (empty list gives the
    trivial subgroup)."""
    gens = _check_indices(group, generators)
    return Subgroup(group, tuple(sorted(_closure(group, gens))))


def subgroup_from_members(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Subgroup from an explicit member list, verified closed under the product.

    The closure grows from each member it does not yet hold, capped at the
    list's length.  It ends holding every member, so it has at least that
    many elements; the list is therefore closed exactly when the cap never
    trips, and then the closure is the list.
    """
    sorted_members = tuple(sorted(set(_check_indices(group, members))))
    if group.identity not in sorted_members:
        raise UsageError("member list does not contain the identity")
    gens: list[int] = []
    closed: frozenset[int] | None = frozenset([group.identity])
    for x in sorted_members:
        if x not in closed:
            gens.append(x)
            closed = _closure(group, gens, cap=len(sorted_members), base=closed)
            if closed is None:
                raise UsageError("member list is not closed under the group product")
    return Subgroup(group, sorted_members)


def _conjugate_members(group: FiniteGroup, members: Iterable[int], g: int) -> frozenset[int]:
    """The set {g x g^-1 : x in members}, with g inverted once."""
    mul, g_inv = group.mul, group.inv(g)
    return frozenset(mul(mul(g, x), g_inv) for x in members)


def class_intersection_profile(group: FiniteGroup, sub: Subgroup) -> tuple[int, ...]:
    """Count of subgroup members in each conjugacy class, in class order,
    from the group's cached class of each member: O(|U|), not O(|G|)."""
    check_parent(group, sub)
    counts = [0] * len(group.conjugacy_classes())
    for c in map(group.class_index, sub.members):
        counts[c] += 1
    return tuple(counts)


def _normaliser(group: FiniteGroup, members: frozenset[int], generators: Iterable[int],
                arcs: list[int]) -> tuple[list, frozenset[int]]:
    """A transversal of R's conjugation orbit, as keys, and N_G(R), for the
    subgroup R with these members and generators, from the ``arcs`` of the
    orbit walked from R (``FiniteGroup.conjugation_orbit``).

    t_0 is the identity and t_j = t_i g_k along the first arc from item i
    under generator k to item j; the maps are x -> g_k^-1 x g_k, so item j
    is {t_j^-1 x t_j : x in R}.  N_G(R) is the stabiliser of R in its
    orbit, of order |G| / |orbit|, and by Schreier's lemma R and the
    t_i g_k t_j^-1 of the arcs off the tree generate it.  It is closed from
    R, one Schreier generator outside it at a time, and the closure stops
    as soon as it has that order, so a self-normalising R takes none.
    """
    keys, index, (product, inverse, _, _) = group._key_space()
    k = len(group.generators)
    t = [keys[group.identity]] + [None] * (len(arcs) // k - 1)
    off_tree = []
    for arc, j in enumerate(arcs):
        i, g = divmod(arc, k)  # generator g is element index g
        if t[j] is None:
            t[j] = product(t[i], keys[g])
        else:
            off_tree.append((i, g, j))
    size, normaliser, gens = group.order // len(t), members, list(generators)
    for i, g, j in off_tree:
        if len(normaliser) == size:
            break
        s = index[product(product(t[i], keys[g]), inverse(t[j]))]
        if s not in normaliser:
            # The base is closed, and the generators include its own.
            gens.append(s)
            normaliser = _closure(group, gens, base=normaliser)
    return t, normaliser


def are_conjugate_subgroups(group: FiniteGroup, u: Subgroup, v: Subgroup) -> int | None:
    """Index of the first g in element order with g U g^-1 = V, or None; the
    identity when U = V, though another element of N_G(U) may come first.

    V is conjugate to U iff it lies in U's conjugation orbit, which is
    computed exactly, so None is a proof for the enumerated group.  The
    orbit is walked once, with its arcs.  If V is item j, V = t_j^-1 U t_j,
    so the g with g U g^-1 = V are exactly the coset t_j^-1 N_G(U), and
    the witness is the least of its |N_G(U)| products in element order,
    not by key, since a matrix or pair key does not sort as its element.
    So it does not depend on which generators happened to build the group.
    """
    check_parent(group, u)
    check_parent(group, v)
    if u.members == v.members:
        return group.identity
    if len(u.members) != len(v.members):
        return None
    arcs: list[int] = []
    orbit = group.conjugation_orbit(u.members, arcs)
    if v.member_set not in orbit:
        return None
    t, normaliser = _normaliser(group, u.member_set, u.members, arcs)
    keys, index, (product, inverse, _, _) = group._key_space()
    coset = inverse(t[orbit.index(v.member_set)])
    return min([index[product(coset, keys[n])] for n in normaliser], key=group.element)


class SunadaReport(NamedTuple):
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
