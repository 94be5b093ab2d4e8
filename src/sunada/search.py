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

Four things keep the growth step cheap without losing a class:

* For r, r' in R, <R, r e r'> = <R, e>.  So R is grown by e only when e lies
  in no double coset R f R of an element f already tried; every skipped
  growth equals one already tried.  R e R is marked one right coset R e r at
  a time, skipping those already marked, which costs |R| + |R e R| products
  rather than |R| + |R|^2.  Each r in R is a fixed right factor of every
  e r, so the marking builds its right multiplier once per representative
  (``_double_coset_marker``), and forms the few products of each coset
  from keys read once.
* The double coset D = R e R just marked decides most growths without a
  closure.  <R, e> is not closed when |R| + |D| exceeds the target order,
  since R and D are disjoint parts of it; nor when D holds an element whose
  order does not divide the target, since a subgroup of that order has no
  such element; nor when the union of R and D is a recorded subgroup, since
  a subgroup holding R and e holds <R, e>, which holds that union, so it is
  <R, e>.
* The closure of <R, e> starts from R's members and adds whole right cosets
  of R (``gassmann._closure`` with R as its base).  The seeds are the
  growths of the trivial subgroup, its default base.
* When |R| p is the target order, for p its least prime divisor, and R's
  conjugation orbit is longer than ``_NORMALISER_ORBIT``, R is grown only
  by the e in N_G(R) outside R (``gassmann._normaliser``, read off the
  orbit walk).  Every prime divisor of |R| is at least p, so for e outside
  N_G(R) the intersection of R and e^-1 R e has index at least p in R, and
  |R e R| >= p |R|: the size test above rejects e already.  Such an R e R
  misses N_G(R), since r e r' in N_G(R) puts e there, so the elements of
  N_G(R) marked tried, and the growths run, are the same as without it.

No growth that would record a class is skipped: a growth skipped for its
double coset equals one tried earlier, and one skipped for D, or for lying
outside N_G(R), would fail or find a recorded subgroup.  The elements are
tried in index order, so each class is first reached by the same growth, in
the same order, as by trying every element, and the ``max_subgroups`` cap
trips at the same point.

Closures that grow past the target order are abandoned.  The pair search
pairs classes of equal class intersection profile (computed once per class;
smoothness is read off it).  Each orbit of pairs under simultaneous conjugacy
holds (m, w) with m the least subgroup of the two classes, and dedupe keeps
the least such pair of each orbit.  The walk records the arcs of every class,
so an orbit on pairs is walked over pairs of orbit positions, each generator
one lookup in each class's arcs (``_least_pairs``), and no member set is
built.

The search builds each pair's report from its bucket and runs no verdict.
U and V come from two different classes of one bucket, so their class
intersection profiles are the bucket's profile, and they are Gassmann
equivalent; and they are not conjugate, since conjugate subgroups lie in
one class (Sunada, Ann. Math. 1985).  So the report is the one
``is_sunada_triple`` gives: both profiles the bucket's, Gassmann, no
conjugator, and a Sunada triple.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, NamedTuple

from .algebra import FiniteGroup, ResourceError, _expect, _integers
from .covering import PolygonSpec, _cycle_orbits
from .gassmann import (SunadaReport, Subgroup, _closure, _conjugate_members,
                       _normaliser, class_intersection_profile)

DEFAULT_SUBGROUP_CAP = 20000

# A representative of least-prime index in the target is grown only inside
# its normaliser when its conjugation orbit is longer than this, so that
# N_G(R), of order |G| / |orbit|, is small next to G.  Shorter orbits cost
# more in the normaliser than they save in the walk (per-rung A/B on the
# search ladder, CHANGES.md).
_NORMALISER_ORBIT = 6


class SearchConfig(NamedTuple):
    """Search parameters: target subgroup order, an optional polygon whose
    quotients must be smooth, a cap on distinct subgroups explored, and
    whether to deduplicate pairs up to simultaneous conjugacy."""

    order: int
    require_smooth: PolygonSpec | None = None
    max_subgroups: int = DEFAULT_SUBGROUP_CAP
    dedupe: bool = True


def _double_coset_marker(group: FiniteGroup,
                         rep: frozenset[int]) -> Callable[[int, set[int]], list[int]]:
    """The map ``mark(e, tried)`` that adds R e R to ``tried``, a union of
    right cosets of R = ``rep``, and returns the elements added.

    R e R is the union of the right cosets R (e r), r in R, so it is added
    one right coset at a time; a coset with e r already in ``tried`` lies in
    it whole, so ``tried`` stays a union of right cosets.  When ``tried`` is
    a union of double cosets without e, the elements added are R e R.

    Each r in R is a fixed right factor for every e tried against R, so its
    right multiplier is built here once, and R's keys are read here once.
    A coset R (e r) is formed by plain key products: a right multiplier of
    e r would serve only its |R| products, and costs more than it saves
    when R has 2 to 6 members, as in the search ladder.
    """
    keys, index, (product, _, right, _) = group._key_space()
    rep_keys = [keys[r] for r in rep]
    times_rep = list(map(right, rep_keys))

    def mark(e: int, tried: set[int]) -> list[int]:
        added: list[int] = []
        e_key = keys[e]
        for times_r in times_rep:
            y = times_r(e_key)
            if index[y] not in tried:
                coset = [index[product(x, y)] for x in rep_keys]
                tried.update(coset)
                added.extend(coset)
        return added
    return mark


def _subgroup_classes(group: FiniteGroup, order: int, max_subgroups: int
                      ) -> list[tuple[list[frozenset[int]], list[int]]]:
    """The conjugation orbit of each conjugacy class of subgroups whose order
    divides ``order``, with the class representative first, and the arcs of
    its walk (``FiniteGroup.conjugation_orbit``).

    Raises ResourceError as soon as the orbits hold more than
    ``max_subgroups`` distinct subgroups; its message gives the classes and
    subgroups recorded until then.
    """
    _expect(group, FiniteGroup)
    order, max_subgroups = _integers((order, max_subgroups), "a subgroup order and cap")
    if order < 1 or group.order % order != 0:
        return []
    # (generators of the representative, orbit, its arcs) per class
    classes: list[tuple[tuple[int, ...], list[frozenset[int]], list[int]]] = []
    seen: set[frozenset[int]] = set()
    least_prime = next((p for p in range(2, order + 1) if order % p == 0), 1)

    def grow(gens: tuple[int, ...], base: frozenset[int] | None = None) -> bool:
        """Record the class of <gens> unless it is too big or already known;
        False when its order does not divide ``order``.  ``base`` is the
        subgroup generated by every generator but the last (trivial for a
        seed)."""
        members = _closure(group, gens, cap=order, base=base)
        if members is None or order % len(members) != 0:
            return False
        if members not in seen:
            orbit, arcs = group.conjugation_orbit(members)
            if len(seen) + len(orbit) > max_subgroups:
                raise ResourceError(
                    f"subgroup enumeration for order {order} exceeded max_subgroups = "
                    f"{max_subgroups} (so far: {len(classes)} subgroup classes, "
                    f"{len(seen)} distinct subgroups)")
            seen.update(orbit)
            classes.append((gens, orbit, arcs))
        return True

    # Element order is a class invariant, so each element class either seeds
    # one cyclic class or holds no element of any subgroup of this order.
    usable: list[int] = []
    for cls in group.conjugacy_classes():
        if grow(cls[:1]):
            usable.extend(cls)
    usable.sort()
    usable_set = frozenset(usable)
    # The trivial subgroup is not grown: its one-element growths are the seeds.
    for gens, orbit, arcs in classes:
        rep = orbit[0]
        if not 1 < len(rep) < order:
            continue
        candidates = usable
        # Of least-prime index: only N_G(R) can grow R (module docstring).
        if len(rep) * least_prime == order and len(orbit) > _NORMALISER_ORBIT:
            candidates = sorted(_normaliser(group, rep, gens, arcs)[1].intersection(usable_set))
        # <R, r e r'> = <R, e> for r, r' in R: one growth per double coset R e R,
        # and none when R e R shows that <R, e> fails or is already recorded.
        tried = set(rep)
        mark = _double_coset_marker(group, rep)
        for e in candidates:
            if e not in tried:
                double = mark(e, tried)
                if (len(rep) + len(double) <= order and usable_set.issuperset(double)
                        and rep.union(double) not in seen):
                    grow(gens + (e,), rep)
    return [(orbit, arcs) for _, orbit, arcs in classes]


def _classes_of_order(group: FiniteGroup, order: int, max_subgroups: int
                      ) -> list[tuple[list[tuple[int, ...]], list[int]]]:
    """Each class of subgroups of exactly ``order``: its sorted member
    tuples in orbit order, and the arcs of its orbit."""
    return [([tuple(sorted(members)) for members in orbit], arcs)
            for orbit, arcs in _subgroup_classes(group, order, max_subgroups)
            if len(orbit[0]) == order]


def enumerate_subgroups(group: FiniteGroup, order: int,
                        max_subgroups: int = DEFAULT_SUBGROUP_CAP) -> list[Subgroup]:
    """All subgroups of the given order, sorted by member tuple.

    A non-divisor order yields an empty list.  Raises ResourceError when the
    walk exceeds ``max_subgroups`` distinct subgroups.
    """
    found = sorted(members for cls, _ in _classes_of_order(group, order, max_subgroups)
                   for members in cls)
    return [Subgroup(group, members) for members in found]


def simultaneous_conjugator(group: FiniteGroup, pair1: tuple[Subgroup, Subgroup],
                            pair2: tuple[Subgroup, Subgroup]) -> int | None:
    """First g with {g U1 g^-1, g V1 g^-1} = {U2, V2} as unordered pairs, or None."""
    u1, v1 = pair1
    u2, v2 = pair2
    targets = (u2.member_set, v2.member_set)
    for g in range(group.order):
        cu = _conjugate_members(group, u1.members, g)
        if cu == targets[0]:
            if _conjugate_members(group, v1.members, g) == targets[1]:
                return g
        elif cu == targets[1]:
            if _conjugate_members(group, v1.members, g) == targets[0]:
                return g
    return None


def find_sunada_pairs(group: FiniteGroup,
                      config: SearchConfig) -> list[tuple[Subgroup, Subgroup, SunadaReport]]:
    """All Gassmann equivalent, non-conjugate subgroup pairs of the target order.

    Each pair (U, V) has U the lesser member tuple; the pairs come sorted.
    ``config.require_smooth`` keeps only classes with smooth quotients and
    ``config.dedupe`` the least pair of each simultaneous-conjugacy orbit.
    Every pair comes with its report, which is ``is_sunada_triple``'s,
    built from the pair's bucket (module docstring).
    """
    return list(_sunada_pairs(group, config))


def _sunada_pairs(group: FiniteGroup,
                  config: SearchConfig) -> Iterator[tuple[Subgroup, Subgroup, SunadaReport]]:
    """The pairs of ``find_sunada_pairs``, yielded as each one is verified."""
    _expect(config, SearchConfig)
    # Profiles and smoothness are conjugation invariants: one test per class.
    buckets: dict[tuple[int, ...], list[tuple[list[tuple[int, ...]], list[int]]]] = {}
    for cls in _classes_of_order(group, config.order, config.max_subgroups):
        profile = class_intersection_profile(group, Subgroup(group, cls[0][0]))
        if config.require_smooth is not None and any(
                counts for _, counts in _cycle_orbits(group, profile, config.require_smooth)):
            continue
        buckets.setdefault(profile, []).append(cls)
    pairs = []
    for profile, bucket in buckets.items():
        for first, second in combinations(bucket, 2):
            if config.dedupe:
                low, other = sorted((first, second), key=lambda cls: min(cls[0]))
                found = _least_pairs(len(group.generators), low, other)
            else:
                found = [(min(u, v), max(u, v)) for u in first[0] for v in second[0]]
            pairs.extend((u, v, profile) for u, v in found)
    sizes = tuple(map(len, group.conjugacy_classes()))
    for u, v, profile in sorted(pairs):
        # Two classes of one bucket: Gassmann, and not conjugate.
        report = SunadaReport(group.order, len(u), len(v), sizes, profile, profile,
                              True, None, None, True)
        yield Subgroup(group, u), Subgroup(group, v), report


def _least_pairs(k: int, low: tuple[list[tuple[int, ...]], list[int]],
                 other: tuple[list[tuple[int, ...]], list[int]]
                 ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The least pair of each orbit of G, with ``k`` generators, on the
    pairs (u, w) of two classes of subgroups under simultaneous conjugation.

    Each class is its members in orbit order and the arcs of its orbit, and
    ``low`` holds m, the least subgroup of the two.  Every orbit on pairs
    holds a pair (m, w), so its least pair is (m, w) for the least such w.
    A pair is walked as a pair of orbit positions: generator g sends (a, b)
    to (arcs_low[a k + g], arcs_other[b k + g]), so no member set is built.
    The w are taken in order, and each starts a walk unless an earlier
    walk reached (m, w); every walk marks its whole orbit.
    """
    (a_members, a_arcs), (b_members, b_arcs) = low, other
    m = min(a_members)
    a0, n = a_members.index(m), len(b_members)
    # Pair (a, b) is the int a n + b; a generator adds its images of a and b.
    steps = [([j * n for j in a_arcs[g::k]], b_arcs[g::k]) for g in range(k)]
    seen = bytearray(len(a_members) * n)
    least = []
    for b0 in sorted(range(n), key=b_members.__getitem__):
        if seen[a0 * n + b0]:
            continue
        least.append((m, b_members[b0]))
        seen[a0 * n + b0] = 1
        walk = [a0 * n + b0]
        for pair in walk:
            a, b = divmod(pair, n)
            for step_a, step_b in steps:
                image = step_a[a] + step_b[b]
                if not seen[image]:
                    seen[image] = 1
                    walk.append(image)
    return least
