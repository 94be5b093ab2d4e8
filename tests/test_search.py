"""Subgroup enumeration and the Sunada pair search."""

from __future__ import annotations

from itertools import combinations

import pytest

from sunada import (
    Perm,
    ResourceError,
    SearchConfig,
    class_intersection_profile,
    covering_report,
    enumerate_subgroups,
    find_sunada_pairs,
    is_sunada_triple,
    simultaneous_conjugator,
    subgroup_from_members,
    subgroup_generate,
)
from sunada import gassmann, search
from sunada.gassmann import _closure
from sunada.search import _double_coset_marker, _subgroup_classes

from conftest import conjugate, subgroup_classes


def _closure_oracle(group, seed_indices):
    """The subgroup the seeds generate, as every word in the seeds and their
    inverses, found breadth-first through ``group.mul``."""
    steps = {*seed_indices, *map(group.inv, seed_indices)}
    members = {group.identity}
    work = [group.identity]
    for x in work:
        for s in steps:
            p = group.mul(x, s)
            if p not in members:
                members.add(p)
                work.append(p)
    return frozenset(members)


def _subgroups_of_order_oracle(group, order):
    """All subgroups of the given order, by closing every generator pair."""
    found = set()
    for i in range(group.order):
        for j in range(i, group.order):
            closure = _closure_oracle(group, (i, j))
            if len(closure) == order:
                found.add(closure)
    return found


# ---------------------------------------------------------------- enumeration


def test_enumerate_subgroups_symmetric_three(s3):
    assert len(enumerate_subgroups(s3, 2)) == 3
    assert len(subgroup_classes(s3, 2)) == 1
    assert len(enumerate_subgroups(s3, 3)) == 1
    assert len(enumerate_subgroups(s3, 1)) == 1
    assert len(enumerate_subgroups(s3, 6)) == 1
    assert enumerate_subgroups(s3, 4) == []
    assert enumerate_subgroups(s3, 5) == []


def test_enumerate_subgroups_matches_pairwise_closure_oracle(s4):
    for order in (2, 3, 4, 6, 8, 12):
        expected = _subgroups_of_order_oracle(s4, order)
        got = {sub.member_set for sub in enumerate_subgroups(s4, order)}
        # the oracle only sees 2-generated subgroups; every subgroup of S4 of
        # these orders is 2-generated, so the sets must agree exactly
        assert got == expected


def test_enumerate_subgroups_of_symmetric_four(s4):
    assert len(enumerate_subgroups(s4, 4)) == 7
    assert len(subgroup_classes(s4, 4)) == 3
    assert len(enumerate_subgroups(s4, 12)) == 1  # the even permutations


def test_enumerate_subgroups_results_are_verified_subgroups(s4):
    for sub in enumerate_subgroups(s4, 6):
        assert subgroup_from_members(s4, sub.members).members == sub.members
        assert sub.order == 6


def test_enumerate_subgroups_cap(s4):
    # The error says how far the walk got: (cap, classes, distinct subgroups).
    for cap, classes, subgroups in [(2, 0, 0), (10, 3, 10)]:
        with pytest.raises(ResourceError) as info:
            enumerate_subgroups(s4, 4, max_subgroups=cap)
        message = str(info.value)
        assert f"for order 4 exceeded max_subgroups = {cap}" in message
        assert f"{classes} subgroup classes, {subgroups} distinct subgroups" in message


# The least cap that passes is the number of subgroups whose order divides
# the target: the walk trips at the same point however it grows its classes.
@pytest.mark.parametrize("name, order, cap", [
    ("psl32", 4, 57), ("psl32", 12, 127), ("psl32", 24, 162), ("psl211", 12, 441)])
def test_least_passing_subgroup_cap(name, order, cap, request):
    group = request.getfixturevalue(name)
    assert enumerate_subgroups(group, order, max_subgroups=cap)
    with pytest.raises(ResourceError):
        enumerate_subgroups(group, order, max_subgroups=cap - 1)


# (all subgroups, up to conjugacy) per divisor order up to 16
SUBGROUP_COUNTS = {
    "genus2": {1: (1, 1), 2: (7, 3), 3: (16, 1), 4: (19, 5), 6: (16, 1), 8: (19, 5),
               12: (4, 1), 16: (3, 1)},
    "genus3": {1: (1, 1), 2: (27, 6), 3: (4, 1), 4: (71, 16), 6: (20, 3), 8: (63, 15),
               12: (13, 4), 16: (19, 7)},
    "orbifold-h": {1: (1, 1), 2: (15, 5), 4: (19, 9), 8: (15, 11), 16: (7, 7)},
}


@pytest.mark.parametrize("name", sorted(SUBGROUP_COUNTS))
def test_subgroup_counts_per_order(name, request):
    group = request.getfixturevalue(name.replace("-", "_")).group
    divisors = [k for k in range(1, 17) if group.order % k == 0]
    assert sorted(SUBGROUP_COUNTS[name]) == divisors
    for order, counts in SUBGROUP_COUNTS[name].items():
        assert (len(enumerate_subgroups(group, order)),
                len(subgroup_classes(group, order))) == counts


def test_closure_from_a_base_matches_the_closure_oracle(genus3, d257):
    # Matrix keys, then image-tuple keys: in D_257 element 0 is a reflection
    # and 1 the 257-cycle, so the bases are trivial, C_2 and C_257.
    for group, bases, step in [(genus3.group, [(), (5,), (3, 17)], 7),
                               (d257, [(), (0,), (1,)], 61)]:
        _check_closures_from_bases(group, bases, step)


def _check_closures_from_bases(group, bases, step):
    for base_gens in bases:
        base = _closure(group, base_gens)
        assert base == _closure_oracle(group, base_gens)
        for e in range(0, group.order, step):
            full = _closure_oracle(group, base_gens + (e,))
            assert _closure(group, base_gens + (e,), base=base) == full
            for cap in (len(full) - 1, len(full)):
                capped = _closure(group, base_gens + (e,), cap=cap, base=base)
                assert capped == (full if cap >= len(full) else None)


@pytest.mark.parametrize("name", ["s4", "psl32"])
def test_double_coset_marking_matches_the_square_construction(name, request):
    """The walk's marking, one right coset at a time, against R e R built
    from all |R|^2 products r e r', after each growth of every class; the
    elements it returns are the ones it added, which are R e R."""
    group = request.getfixturevalue(name)
    for orbit, _ in _subgroup_classes(group, group.order, 10**6):
        rep = orbit[0]
        tried, square = set(rep), set(rep)
        mark = _double_coset_marker(group, rep)
        for e in range(group.order):
            if e not in tried:
                before = set(tried)
                added = mark(e, tried)
                left = [group.mul(r, e) for r in rep]
                double = {group.mul(x, r) for r in rep for x in left}
                assert len(added) == len(set(added))
                assert set(added) == tried - before == double
                square |= double
                assert tried == square


def _reference_walk(group, order):
    """The subgroup walk without pruning: each representative R is grown by
    every usable e outside the double cosets tried so far, and then R e R,
    built from all |R|^2 products, is marked as tried."""
    if order == 1:
        return [[frozenset({group.identity})]]
    classes, seen = [], set()

    def grow(gens, base=None):
        members = _closure(group, gens, cap=order, base=base)
        if members is None or order % len(members) != 0:
            return False
        if members not in seen:
            orbit = group.conjugation_orbit(members)
            seen.update(orbit)
            classes.append((gens, orbit))
        return True

    usable = []
    for cls in group.conjugacy_classes():
        if grow(cls[:1]):
            usable.extend(cls)
    usable.sort()
    for gens, orbit in classes:
        rep = orbit[0]
        if not 1 < len(rep) < order:
            continue
        tried = set(rep)
        for e in usable:
            if e not in tried:
                grow(gens + (e,), rep)
                left = [group.mul(r, e) for r in rep]
                tried.update(group.mul(x, r) for r in rep for x in left)
    return [orbit for _, orbit in classes]


@pytest.mark.parametrize("name", ["s4", "psl32", "psl211", "genus2", "genus3", "orbifold-h",
                                  "d257"])
def test_pruned_walk_reaches_the_classes_of_the_reference_walk_in_order(name, request):
    """Growths skipped by the walk's double-coset tests would have failed or
    found a recorded subgroup, so the classes, their order, representatives
    and orbits are those of the unpruned walk.  The orders are the divisors
    up to 24 and the group's own, the whole lattice."""
    fixture = request.getfixturevalue(name.replace("-", "_"))
    group = getattr(fixture, "group", fixture)
    for order in sorted({*range(1, 25), group.order}):
        if group.order % order == 0:
            walked = _subgroup_classes(group, order, 20000)
            assert [orbit for orbit, _ in walked] == _reference_walk(group, order)


@pytest.mark.parametrize("name, order, grown", [
    ("psl32", 21, [(7, 8)]), ("psl211", 12, [(6, 55)] * 3), ("genus2", 8, [])])
def test_walk_grows_a_class_of_least_prime_index_inside_its_normaliser(
        name, order, grown, request, monkeypatch):
    """The (order, orbit length) of each representative grown only inside
    N_G(R): of index p in the target, p its least prime divisor, with an
    orbit longer than 6.  At order 21 p is 3, and the Sylow 7-subgroups of
    PSL(3,2) have 8 conjugates; genus2's classes of order 4 have orbits of
    at most 6.  The reference-walk test shows the classes are unchanged."""
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    calls = []

    def recording_normaliser(group, members, generators, arcs):
        calls.append((len(members), len(arcs) // len(group.generators)))
        return gassmann._normaliser(group, members, generators, arcs)

    monkeypatch.setattr(search, "_normaliser", recording_normaliser)
    assert _subgroup_classes(group, order, 20000)
    assert calls == grown


@pytest.mark.parametrize("name, order, most", [("psl211", 12, 40), ("psl32", 24, 50)])
def test_double_coset_tests_prune_the_growth_closures(name, order, most, request, monkeypatch):
    """Most growths overflow the order or miss it; R e R shows that before
    the closure (the unpruned walk makes 290 and 118 closures here)."""
    group = request.getfixturevalue(name)
    calls = []

    def counting_closure(*args, **kwargs):
        calls.append(args)
        return _closure(*args, **kwargs)

    monkeypatch.setattr(search, "_closure", counting_closure)
    assert _subgroup_classes(group, order, 20000)
    assert len(calls) <= most


def test_enumerate_subgroups_ordering_is_deterministic(s4):
    first = [sub.members for sub in enumerate_subgroups(s4, 4)]
    second = [sub.members for sub in enumerate_subgroups(s4, 4)]
    assert first == second
    assert first == sorted(first)


# ------------------------------------------------------- pairwise conjugation


def test_simultaneous_conjugator_finds_witness(s4):
    u = subgroup_generate(s4, [s4.index_of(Perm((1, 0, 2, 3)))])
    v = subgroup_generate(s4, [s4.index_of(Perm((0, 1, 3, 2)))])
    g = 5
    u2 = subgroup_from_members(s4, conjugate(s4, u.members, g))
    v2 = subgroup_from_members(s4, conjugate(s4, v.members, g))
    h = simultaneous_conjugator(s4, (u, v), (u2, v2))
    assert h is not None
    hu = conjugate(s4, u.members, h)
    hv = conjugate(s4, v.members, h)
    assert (hu, hv) == (u2.member_set, v2.member_set) or (
        hu, hv) == (v2.member_set, u2.member_set)


def test_simultaneous_conjugator_is_unordered(s4):
    u = subgroup_generate(s4, [s4.index_of(Perm((1, 0, 2, 3)))])
    v = subgroup_generate(s4, [s4.index_of(Perm((0, 1, 3, 2)))])
    assert simultaneous_conjugator(s4, (u, v), (v, u)) is not None


def test_simultaneous_conjugator_none_for_unrelated(s4):
    u = subgroup_generate(s4, [s4.index_of(Perm((1, 0, 2, 3)))])
    w = subgroup_generate(s4, [s4.index_of(Perm((1, 2, 0, 3)))])  # order 3
    assert simultaneous_conjugator(s4, (u, u), (w, w)) is None


# --------------------------------------------------------------------- search


def test_search_finds_nothing_in_symmetric_three(s3):
    assert find_sunada_pairs(s3, SearchConfig(order=2)) == []
    assert find_sunada_pairs(s3, SearchConfig(order=3)) == []


def test_search_finds_the_orbifold_pair(orbifold_h):
    g = orbifold_h.group
    target = {orbifold_h.subgroup_u.member_set, orbifold_h.subgroup_v.member_set}

    raw = find_sunada_pairs(g, SearchConfig(order=4, dedupe=False))
    assert any({u.member_set, v.member_set} == target for u, v, _ in raw)
    for u, v, report in raw:
        assert report.is_sunada_triple
        assert class_intersection_profile(g, u) == class_intersection_profile(g, v)

    deduped = find_sunada_pairs(g, SearchConfig(order=4))
    assert 0 < len(deduped) <= len(raw)
    assert any(
        simultaneous_conjugator(g, (u, v), (orbifold_h.subgroup_u, orbifold_h.subgroup_v))
        is not None
        for u, v, _ in deduped
    )
    # deduped representatives are pairwise non-equivalent
    for i, (u1, v1, _) in enumerate(deduped):
        for u2, v2, _ in deduped[i + 1:]:
            assert simultaneous_conjugator(g, (u1, v1), (u2, v2)) is None


def test_search_smooth_filter(genus2):
    g = genus2.group
    pairs = find_sunada_pairs(g, SearchConfig(order=8, require_smooth=genus2.polygon))
    assert pairs
    for u, v, report in pairs:
        assert report.is_sunada_triple
        assert covering_report(g, u, genus2.polygon).smooth
        assert covering_report(g, v, genus2.polygon).smooth
    assert any(
        simultaneous_conjugator(g, (u, v), (genus2.subgroup_u, genus2.subgroup_v))
        is not None
        for u, v, _ in pairs
    )


def test_search_pair_order_is_canonical(orbifold_h):
    for u, v, _ in find_sunada_pairs(orbifold_h.group, SearchConfig(order=4, dedupe=False)):
        assert u.members < v.members


@pytest.mark.parametrize("name, order", [("orbifold-h", 4), ("genus3", 8), ("psl32", 24)])
def test_dedupe_keeps_a_representative_of_every_pair(name, order, request):
    fixture = request.getfixturevalue(name.replace("-", "_"))
    g = getattr(fixture, "group", fixture)
    raw = find_sunada_pairs(g, SearchConfig(order=order, dedupe=False))
    kept = find_sunada_pairs(g, SearchConfig(order=order))
    assert kept == [entry for entry in raw if entry in kept]
    raw_pairs = [(u, v) for u, v, _ in raw]
    assert [(u.members, v.members) for u, v in raw_pairs] == sorted(
        (u.members, v.members) for u, v in raw_pairs)
    # Each kept pair is the least raw pair of its simultaneous-conjugacy
    # orbit, so no two kept pairs share an orbit, and the orbits cover raw.
    covered = 0
    for ku, kv, _ in kept:
        orbit = [pair for pair in raw_pairs
                 if simultaneous_conjugator(g, pair, (ku, kv)) is not None]
        assert orbit[0] == (ku, kv)
        covered += len(orbit)
    assert covered == len(raw)


def _least_pair_of_every_orbit(group, order):
    """The least pair of each orbit of G on the Gassmann equivalent pairs of
    subgroups of this order in different classes, under simultaneous
    conjugation.  Each subgroup's images under the generators come from
    ``conjugate``; the pairs are taken in order, and each one not yet
    reached starts a breadth-first walk of its orbit.  The two subgroups of
    a pair lie in different classes, so a pair is marked as a set."""
    subgroups = enumerate_subgroups(group, order)  # in member order
    image = {sub.member_set: [conjugate(group, sub.members, g) for g in group.generators]
             for sub in subgroups}
    class_of = {}
    for h in image:
        if h not in class_of:
            class_of[h], walk = h, [h]
            for x in walk:
                for y in image[x]:
                    if y not in class_of:
                        class_of[y] = h
                        walk.append(y)
    profile = {sub.member_set: class_intersection_profile(group, sub) for sub in subgroups}
    least, reached = [], set()
    # Pairs of a list in member order come in the order of the pairs.
    for u, w in combinations([sub.member_set for sub in subgroups], 2):
        if class_of[u] == class_of[w] or profile[u] != profile[w] or frozenset((u, w)) in reached:
            continue
        least.append((tuple(sorted(u)), tuple(sorted(w))))
        reached.add(frozenset((u, w)))
        walk = [(u, w)]
        for x, y in walk:
            for pair in zip(image[x], image[y]):
                if frozenset(pair) not in reached:
                    reached.add(frozenset(pair))
                    walk.append(pair)
    return least


# All the orders up to 96 with pairs in the five small groups, and one of
# PSL(3,3).
_PAIR_CASES = [
    ("genus2", 8), ("genus3", 4), ("genus3", 8), ("orbifold-h", 4), ("psl32", 4),
    ("psl32", 12), ("psl32", 24), ("psl211", 6), ("psl211", 60), ("psl33", 54)]


@pytest.mark.parametrize("name, order", _PAIR_CASES)
def test_dedupe_keeps_the_least_pair_of_every_orbit(name, order, request):
    """The kept pairs, read off the orbits of the two classes' arcs, against
    the orbits on pairs walked over member sets.  These are all the orders
    up to 96 with pairs in the five small groups, and one of PSL(3,3)."""
    fixture = request.getfixturevalue(name.replace("-", "_"))
    group = getattr(fixture, "group", fixture)
    kept = [(u.members, v.members) for u, v, _ in find_sunada_pairs(group, SearchConfig(order))]
    assert kept == _least_pair_of_every_orbit(group, order)


@pytest.mark.parametrize("dedupe", [True, False], ids=["dedupe", "no-dedupe"])
@pytest.mark.parametrize("name, order", _PAIR_CASES)
def test_pair_reports_built_from_the_bucket_match_the_verdict(name, order, dedupe, request):
    """Each pair's report, built from its profile bucket, against the full
    ``is_sunada_triple`` of that pair, field by field."""
    fixture = request.getfixturevalue(name.replace("-", "_"))
    group = getattr(fixture, "group", fixture)
    pairs = find_sunada_pairs(group, SearchConfig(order, dedupe=dedupe))
    assert pairs
    for u, v, report in pairs:
        assert report._asdict() == is_sunada_triple(group, u, v)._asdict()
