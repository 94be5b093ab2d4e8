"""Subgroup enumeration and the Sunada pair search."""

from __future__ import annotations

import pytest

from sunada import (
    Perm,
    ResourceError,
    SearchConfig,
    are_gassmann,
    covering_report,
    enumerate_subgroups,
    find_sunada_pairs,
    simultaneous_conjugator,
    subgroup_from_members,
    subgroup_generate,
)


def _closure_oracle(group, seed_indices):
    members = {group.identity, *seed_indices}
    work = list(members)
    while work:
        x = work.pop()
        for y in list(members):
            for p in (group.mul(x, y), group.mul(y, x)):
                if p not in members:
                    members.add(p)
                    work.append(p)
            inv = group.inv(x)
            if inv not in members:
                members.add(inv)
                work.append(inv)
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
    assert len(enumerate_subgroups(s3, 2, up_to_conjugacy=True)) == 1
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
    assert len(enumerate_subgroups(s4, 4, up_to_conjugacy=True)) == 3
    assert len(enumerate_subgroups(s4, 12)) == 1  # the even permutations


def test_enumerate_subgroups_results_are_verified_subgroups(s4):
    for sub in enumerate_subgroups(s4, 6):
        assert subgroup_from_members(s4, sub.members).members == sub.members
        assert sub.order == 6


def test_enumerate_subgroups_cap(s4):
    with pytest.raises(ResourceError):
        enumerate_subgroups(s4, 4, max_subgroups=2)


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
    u2 = subgroup_from_members(s4, [s4.conjugate(g, x) for x in u.members])
    v2 = subgroup_from_members(s4, [s4.conjugate(g, x) for x in v.members])
    h = simultaneous_conjugator(s4, (u, v), (u2, v2))
    assert h is not None
    hu = {s4.conjugate(h, x) for x in u.members}
    hv = {s4.conjugate(h, x) for x in v.members}
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
        assert are_gassmann(g, u, v)

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


@pytest.mark.parametrize("name, order", [("orbifold-h", 4), ("genus3", 8)])
def test_dedupe_keeps_a_representative_of_every_pair(name, order, request):
    g = request.getfixturevalue(name.replace("-", "_")).group
    raw = find_sunada_pairs(g, SearchConfig(order=order, dedupe=False))
    kept = find_sunada_pairs(g, SearchConfig(order=order))
    assert kept == [entry for entry in raw if entry in kept]
    for u, v, _ in raw:
        assert any(simultaneous_conjugator(g, (u, v), (ku, kv)) is not None
                   for ku, kv, _ in kept)
