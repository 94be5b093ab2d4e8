"""Subgroups, class intersection profiles, and Sunada verdicts."""

from __future__ import annotations

import random

import pytest

from sunada import (
    Perm,
    UsageError,
    are_conjugate_subgroups,
    are_gassmann,
    class_intersection_profile,
    compose,
    element_order,
    enumerate_subgroups,
    inverse,
    is_sunada_triple,
    subgroup_from_members,
    subgroup_generate,
)
from sunada.gassmann import conjugate_members
from conftest import full_subgroup, trivial_subgroup


def _subgroup_of(group, *elements):
    return subgroup_generate(group, [group.index_of(e) for e in elements])


# ------------------------------------------------------------------ subgroups


def test_subgroup_generate_trivial_and_full(s3):
    triv = subgroup_generate(s3, [])
    assert triv.members == (s3.identity,)
    assert triv.order == 1
    assert triv.index == 6
    assert trivial_subgroup(s3).members == triv.members
    assert full_subgroup(s3).order == 6


def test_subgroup_from_members_checks_closure(s3):
    t = s3.index_of(Perm((1, 0, 2)))
    sub = subgroup_from_members(s3, [s3.identity, t])
    assert sub.order == 2
    with pytest.raises(UsageError):
        subgroup_from_members(s3, [t])  # missing identity
    three = s3.index_of(Perm((1, 2, 0)))
    with pytest.raises(UsageError):
        subgroup_from_members(s3, [s3.identity, three])  # not closed
    # <t> fits, and the second transposition then generates all of S3
    with pytest.raises(UsageError, match="not closed"):
        subgroup_from_members(s3, [s3.identity, t, s3.index_of(Perm((0, 2, 1)))])


def test_subgroup_membership_and_order_divides(s4):
    rng = random.Random(7)
    for _ in range(10):
        gens = rng.sample(range(s4.order), 2)
        sub = subgroup_generate(s4, gens)
        assert s4.order % sub.order == 0
        assert s4.identity in sub
        for i in sub.members:
            assert s4.inv(i) in sub


# ------------------------------------------------------------------- profiles


def test_profile_counts_sum_to_subgroup_order(s4):
    rng = random.Random(11)
    for _ in range(10):
        sub = subgroup_generate(s4, rng.sample(range(s4.order), 2))
        profile = class_intersection_profile(s4, sub)
        assert len(profile) == len(s4.conjugacy_classes())
        assert sum(profile) == sub.order


def _brute_force_classes(group):
    """Each class {g x g^-1 : g in G}, built from the element objects, in
    order of least member index."""
    elements = group.elements
    seen: set[int] = set()
    classes = []
    for x in range(group.order):
        if x not in seen:
            cls = {group.index_of(compose(compose(g, elements[x]), inverse(g))) for g in elements}
            seen |= cls
            classes.append(cls)
    return classes


@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h", "psl32"])
def test_profile_matches_brute_force_count(name, request):
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    classes = _brute_force_classes(group)
    for order in (d for d in range(1, group.order + 1) if group.order % d == 0):
        for sub in enumerate_subgroups(group, order, up_to_conjugacy=True):
            expected = tuple(sum(1 for x in sub.members if x in cls) for cls in classes)
            assert class_intersection_profile(group, sub) == expected


def test_conjugate_members_matches_definition(s4):
    rng = random.Random(17)
    members = rng.sample(range(s4.order), 6)
    for g in range(s4.order):
        x_g = s4.element(g)
        expected = {s4.index_of(compose(compose(x_g, s4.element(x)), inverse(x_g)))
                    for x in members}
        assert conjugate_members(s4, members, g) == expected


def test_profile_is_conjugation_invariant(s4):
    rng = random.Random(13)
    for _ in range(10):
        sub = subgroup_generate(s4, rng.sample(range(s4.order), 2))
        g = rng.randrange(s4.order)
        conj = subgroup_from_members(s4, [s4.conjugate(g, x) for x in sub.members])
        assert class_intersection_profile(s4, sub) == class_intersection_profile(s4, conj)
        assert are_gassmann(s4, sub, conj)


# ----------------------------------------------------------------- conjugacy


def test_conjugate_subgroups_in_symmetric_three(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    v = _subgroup_of(s3, Perm((0, 2, 1)))
    g = are_conjugate_subgroups(s3, u, v)
    assert g is not None
    assert element_order(s3.element(g)) == 3
    assert {s3.conjugate(g, x) for x in u.members} == v.member_set


def test_conjugate_subgroups_identical_input_returns_identity(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    assert are_conjugate_subgroups(s3, u, u) == s3.identity


def test_conjugate_subgroups_none_when_orders_differ(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    assert are_conjugate_subgroups(s3, u, full_subgroup(s3)) is None


# -------------------------------------------------------------- full verdicts


def test_s3_transposition_pair_is_not_sunada(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    v = _subgroup_of(s3, Perm((0, 2, 1)))
    report = is_sunada_triple(s3, u, v)
    assert report.gassmann
    assert report.conjugator is not None
    assert not report.is_sunada_triple


def test_genus2_pair_is_sunada(genus2):
    report = is_sunada_triple(genus2.group, genus2.subgroup_u, genus2.subgroup_v)
    assert report.group_order == 96
    assert report.order_u == 8 and report.order_v == 8
    assert report.index_u == 12 and report.index_v == 12
    assert report.gassmann
    assert report.conjugator is None
    assert report.conjugator_repr is None
    assert report.is_sunada_triple
    assert report.profile_u == report.profile_v
    assert sum(report.class_sizes) == 96


def test_genus2_generator_power_classes_miss_both_subgroups(genus2):
    g = genus2.group
    report = is_sunada_triple(g, genus2.subgroup_u, genus2.subgroup_v)
    for _, idx in genus2.generator_labels:
        power = idx
        for _ in range(1, element_order(g.element(idx))):
            cls = g.class_index(power)
            assert report.profile_u[cls] == 0
            assert report.profile_v[cls] == 0
            power = g.mul(power, idx)


def test_orbifold_pair_is_sunada(orbifold_h):
    report = is_sunada_triple(orbifold_h.group, orbifold_h.subgroup_u, orbifold_h.subgroup_v)
    assert report.group_order == 32
    assert report.gassmann
    assert report.conjugator is None
    assert report.is_sunada_triple


def test_report_json_shape(genus2):
    d = is_sunada_triple(genus2.group, genus2.subgroup_u, genus2.subgroup_v).to_json_dict()
    assert d["group_order"] == 96
    assert d["subgroup_orders"] == [8, 8]
    assert d["indices"] == [12, 12]
    assert d["gassmann"] is True
    assert d["conjugator"] is None
    assert d["is_sunada_triple"] is True
    rows = d["classes"]
    assert len(rows) == 12
    assert all(set(r) == {"index", "size", "count_u", "count_v"} for r in rows)
    assert sum(r["size"] for r in rows) == 96
    assert sum(r["count_u"] for r in rows) == 8


def test_subgroup_parent_mismatch_is_rejected(s3, s4):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    with pytest.raises(UsageError):
        class_intersection_profile(s4, u)
