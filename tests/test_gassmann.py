"""Subgroups, class intersection profiles, and Sunada verdicts."""

from __future__ import annotations

import json
import random

import pytest

from sunada import (
    Perm,
    Subgroup,
    UsageError,
    are_conjugate_subgroups,
    catalog_entry,
    class_intersection_profile,
    document_from_catalog,
    enumerate_subgroups,
    is_sunada_triple,
    load_text,
    subgroup_from_members,
    subgroup_generate,
)
from sunada.gassmann import _conjugate_members, _normaliser
from sunada.search import _subgroup_classes

from conftest import (compose, conjugate, elements, full_subgroup, invert, least_conjugator,
                      order_of, subgroup_classes, trivial_subgroup)


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
        assert s4.identity in sub.member_set
        for i in sub.members:
            assert s4.inv(i) in sub.member_set


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
    every = elements(group)
    seen: set[int] = set()
    classes = []
    for x in range(group.order):
        if x not in seen:
            cls = {group.index_of(compose(compose(g, every[x]), invert(g))) for g in every}
            seen |= cls
            classes.append(cls)
    return classes


@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h", "psl32"])
def test_profile_matches_brute_force_count(name, request):
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    classes = _brute_force_classes(group)
    for order in (d for d in range(1, group.order + 1) if group.order % d == 0):
        for sub in subgroup_classes(group, order):
            expected = tuple(sum(1 for x in sub.members if x in cls) for cls in classes)
            assert class_intersection_profile(group, sub) == expected


def test_conjugate_members_matches_definition(s4):
    """The conjugator scans' helper and the tests' ``conjugate`` oracle both
    give {g x g^-1} as the element arithmetic does."""
    rng = random.Random(17)
    members = rng.sample(range(s4.order), 6)
    for g in range(s4.order):
        x_g = s4.element(g)
        expected = {s4.index_of(compose(compose(x_g, s4.element(x)), invert(x_g)))
                    for x in members}
        assert _conjugate_members(s4, members, g) == conjugate(s4, members, g) == expected


def test_profile_is_conjugation_invariant(s4):
    rng = random.Random(13)
    for _ in range(10):
        sub = subgroup_generate(s4, rng.sample(range(s4.order), 2))
        g = rng.randrange(s4.order)
        conj = subgroup_from_members(s4, conjugate(s4, sub.members, g))
        assert class_intersection_profile(s4, sub) == class_intersection_profile(s4, conj)


# ----------------------------------------------------------------- conjugacy


def test_conjugate_subgroups_in_symmetric_three(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    v = _subgroup_of(s3, Perm((0, 2, 1)))
    g = are_conjugate_subgroups(s3, u, v)
    assert g is not None
    assert order_of(s3, g) == 3
    assert conjugate(s3, u.members, g) == v.member_set


def test_conjugate_subgroups_identical_input_returns_identity(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    assert are_conjugate_subgroups(s3, u, u) == s3.identity


def test_conjugate_subgroups_none_when_orders_differ(s3):
    u = _subgroup_of(s3, Perm((1, 0, 2)))
    assert are_conjugate_subgroups(s3, u, full_subgroup(s3)) is None


def _lattice(name, request, order=None):
    """The group of a fixture and the orbit of every subgroup class the
    walk finds in it (of an order dividing ``order``, by default the whole
    lattice), representative first."""
    fixture = request.getfixturevalue(name.replace("-", "_"))
    group = getattr(fixture, "group", fixture)
    return group, [orbit for orbit, _ in _subgroup_classes(group, order or group.order, 20000)]


_LATTICES = ["genus2", "genus3", "orbifold-h", "psl32", "psl211"]


@pytest.mark.parametrize("name", _LATTICES + ["d257"])
def test_normaliser_is_the_stabiliser_in_the_conjugation_orbit(name, request):
    """For every class: N_G(R) read off the orbit walk is {g : g R g^-1 = R},
    and the transversal's t_j carries R onto orbit item j, t_j^-1 R t_j.  In
    D_257 (image-tuple keys) the class is the 257 reflection subgroups."""
    group, orbits = _lattice(name, request, 2 if name == "d257" else None)
    index = group._key_space()[1]
    for orbit in orbits:
        rep, arcs = orbit[0], []
        assert group.conjugation_orbit(rep, arcs) == orbit
        assert len(arcs) == len(orbit) * len(group.generators)
        t, normaliser = _normaliser(group, rep, sorted(rep), arcs)
        mul, inv = group.mul, group.inv
        assert normaliser == {g for g in range(group.order)
                              if all(mul(mul(g, x), inv(g)) in rep for x in rep)}
        assert [conjugate(group, rep, inv(index[key])) for key in t] == orbit


@pytest.mark.parametrize("name", _LATTICES)
def test_least_conjugator_matches_the_sorted_scan(name, request):
    """The witness from one coset of N_G(U) against the scan of the whole
    sorted group, on three conjugates of each class's representative (all
    of them in a shorter orbit)."""
    group, orbits = _lattice(name, request)
    for orbit in orbits:
        u = Subgroup(group, tuple(sorted(orbit[0])))
        picks = orbit[1:] if len(orbit) <= 4 else [orbit[1], orbit[len(orbit) // 2], orbit[-1]]
        for members in picks:
            v = Subgroup(group, tuple(sorted(members)))
            g = are_conjugate_subgroups(group, u, v)
            assert g == least_conjugator(group, u.members, v.members) is not None


def test_least_conjugator_of_two_point_stabilisers(psl33):
    """The stabilisers of points 0 and 5 of PSL(3,3) are self-normalising, so
    the witness is the least of |U| = 432 products; it lies at rank 542 of
    the element order."""
    u, v = (Subgroup(psl33, tuple(i for i in range(psl33.order)
                                  if psl33.element(i).images[point] == point))
            for point in (0, 5))
    g = are_conjugate_subgroups(psl33, u, v)
    assert g == least_conjugator(psl33, u.members, v.members)
    assert sorted(range(psl33.order), key=psl33.element).index(g) == 542


@pytest.mark.parametrize("name, words, witness, least_by_key", [
    ("genus3", ["a^-1 b a a a", "a^-1 a^-1 c^-1 c^-1 a"], 50, 36),
    ("orbifold-h", ["a^-1 a c a", "a^-1 b c b a"], 22, 2)], ids=["genus3", "orbifold-h"])
def test_least_conjugator_is_least_as_an_element(name, words, witness, least_by_key):
    """U1 of the document against W = a^-1 U1 a, W given by generator words
    as in the CI's conjugate verdicts.  A matrix or pair key is the bytes of
    its action, which sort otherwise than the element: the least conjugator
    by key would be another element ([[3,1],[1,0]], and (1,0) read as the
    affine map t -> t)."""
    doc = document_from_catalog(catalog_entry(name))
    doc["subgroups"]["W"] = {"generators": words}
    spec = load_text(json.dumps(doc))
    group, u, w = spec.group, spec.subgroups["U1"], spec.subgroups["W"]
    assert u != w and witness != group.identity
    assert are_conjugate_subgroups(group, u, w) == least_conjugator(group, u.members, w.members)
    assert are_conjugate_subgroups(group, u, w) == witness
    keys = group._key_space()[0]
    assert min([g for g in range(group.order) if conjugate(group, u.members, g) == w.member_set],
               key=keys.__getitem__) == least_by_key != witness


def test_equal_subgroups_short_circuit_to_the_identity(genus3):
    """U = V gives the identity (index 29 in genus3), though a lesser element
    of N_G(U) may also carry U onto itself: for U = <71> of order 2, element
    71, [[0,1],[1,0]], comes before the identity matrix."""
    group = genus3.group
    u = subgroup_generate(group, [71])
    assert u.members == (group.identity, 71) == (29, 71)
    assert are_conjugate_subgroups(group, u, u) == group.identity
    assert least_conjugator(group, u.members, u.members) == 71


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
    for _, idx in genus2.polygon.cycles:
        power = idx
        for _ in range(1, order_of(g, idx)):
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
