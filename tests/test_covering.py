"""Polygon specs, smoothness, Euler characteristics, and cone points."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from sunada import (
    ConePoint,
    Perm,
    PolygonSpec,
    SearchConfig,
    UsageError,
    cone_points,
    covering_report,
    covering_report_json,
    element_order,
    enumerate_subgroups,
    find_sunada_pairs,
    parse_cycles,
    smoothness,
    subgroup_generate,
)
from conftest import full_subgroup, trivial_subgroup


def _raw_cosets(group, sub):
    """Element -> its right coset U x as a raw element set (one shared set per
    coset), built from the subgroup members rather than through the coset
    table."""
    coset_of: dict[int, frozenset] = {}
    for x in range(group.order):
        if x not in coset_of:
            coset = frozenset(group.mul(u, x) for u in sub.members)
            coset_of.update(dict.fromkeys(coset, coset))
    return coset_of


def _expected_cone_counts(group, coset_of, elem_idx):
    """Cone order -> multiplicity derived from the multiset of coset orbit
    sizes under right multiplication, and whether no orbit is shorter than
    the element order."""
    m = element_order(group.element(elem_idx))
    seen: set[frozenset] = set()
    sizes = []
    for coset in coset_of.values():
        size = 0
        while coset not in seen:
            seen.add(coset)
            size += 1
            coset = coset_of[group.mul(next(iter(coset)), elem_idx)]
        if size:
            sizes.append(size)
    return Counter(m // d for d in sizes if d < m), min(sizes) == m


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _triangle_polygon(psl32):
    """The polygon a, b, (ab)^-1 of PSL(3,2) on its two generators."""
    a = psl32.index_of(parse_cycles("(1,5)(2,6)", 7))
    b = psl32.index_of(parse_cycles("(0,3,1)(2,4,5)", 7))
    return PolygonSpec(2, (("a", a), ("b", b), ("c", psl32.inv(psl32.mul(a, b)))))


# ----------------------------------------------------------------- validation


def test_polygon_spec_rejects_bad_shapes(s3):
    t = s3.index_of(Perm((1, 0, 2)))
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=0, cycles=(("t", t),))
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=1, cycles=())
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=1, cycles=(("t", t), ("t", t)))


@pytest.mark.parametrize("edge_pairs", [2.5, "2", True])
def test_polygon_spec_rejects_a_non_integer_edge_pair_count(edge_pairs):
    with pytest.raises(UsageError, match="must be an integer"):
        PolygonSpec(edge_pairs, (("a", 0),))


# ----------------------------------------------------------------- smoothness


def test_smoothness_per_cycle(genus2, genus3, orbifold_h):
    for entry, expected in (
        (genus2, (True, True, True)),
        (genus3, (True, True, True)),
        (orbifold_h, (False, True, False, True)),
    ):
        flags = smoothness(entry.group, entry.subgroup_u, entry.polygon)
        assert flags == expected
        assert smoothness(entry.group, entry.subgroup_v, entry.polygon) == expected


def test_trivial_subgroup_cover_is_smooth(genus2):
    flags = smoothness(genus2.group, trivial_subgroup(genus2.group), genus2.polygon)
    assert flags == (True, True, True)


# --------------------------------------------------------- Euler characteristic


def test_orbifold_euler_exact_values(genus2, genus3, orbifold_h):
    for entry, sub, chi in ((genus2, genus2.subgroup_u, -2), (genus2, genus2.subgroup_v, -2),
                            (genus3, genus3.subgroup_u, -4),
                            (orbifold_h, orbifold_h.subgroup_u, -2)):
        assert covering_report(entry.group, sub, entry.polygon).chi_orb == Fraction(chi)


def test_orbifold_euler_scales_with_index(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        base = covering_report(entry.group, full_subgroup(entry.group), entry.polygon).chi_orb
        for sub in (entry.subgroup_u, entry.subgroup_v, trivial_subgroup(entry.group)):
            assert covering_report(entry.group, sub, entry.polygon).chi_orb == sub.index * base


# ---------------------------------------------------------------- cone points


def test_cone_points_match_orbit_oracle(genus2, genus3, orbifold_h, psl32):
    cases = [(e.group, e.polygon) for e in (genus2, genus3, orbifold_h)]
    cases.append((psl32, _triangle_polygon(psl32)))
    for group, polygon in cases:
        labels = [label for label, _ in polygon.cycles]
        for order in _divisors(group.order):
            for sub in enumerate_subgroups(group, order):
                points = cone_points(group, sub, polygon)
                # grouped per cycle, in ascending cone order
                keys = [(labels.index(p.label), p.order) for p in points]
                assert keys == sorted(set(keys))
                flags = smoothness(group, sub, polygon)
                by_label: dict[str, Counter] = {}
                for p in points:
                    by_label.setdefault(p.label, Counter())[p.order] += p.multiplicity
                coset_of = _raw_cosets(group, sub)
                assert len(set(coset_of.values())) == sub.index
                for (label, idx), smooth in zip(polygon.cycles, flags):
                    expected, no_short_orbit = _expected_cone_counts(group, coset_of, idx)
                    assert by_label.get(label, Counter()) == expected
                    assert smooth == no_short_orbit


def test_smooth_entries_have_no_cone_points(genus2, genus3):
    for entry in (genus2, genus3):
        assert cone_points(entry.group, entry.subgroup_u, entry.polygon) == ()
        assert cone_points(entry.group, entry.subgroup_v, entry.polygon) == ()


def test_orbifold_entry_cone_points_frozen(orbifold_h):
    expected = (ConePoint("a", 2, 2), ConePoint("c", 2, 2))
    assert cone_points(orbifold_h.group, orbifold_h.subgroup_u, orbifold_h.polygon) == expected
    assert cone_points(orbifold_h.group, orbifold_h.subgroup_v, orbifold_h.polygon) == expected


def test_full_subgroup_cone_points_are_cycle_orders(genus2):
    # index 1: each cycle contributes a single fixed coset, cone order = element order
    points = cone_points(genus2.group, full_subgroup(genus2.group), genus2.polygon)
    assert points == (ConePoint("a", 3, 1), ConePoint("b", 3, 1), ConePoint("c", 6, 1))


@pytest.mark.parametrize("name", ["genus2", "orbifold_h", "psl32"])
def test_cycle_orders_match_element_order(name, request):
    """A polygon with every element of the group as a cycle: each reported
    cycle order is the order of that element."""
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    spec = PolygonSpec(2, [(f"e{i}", i) for i in range(group.order)])
    report = covering_report(group, trivial_subgroup(group), spec)
    assert report.cycle_orders == tuple(element_order(group.element(i))
                                        for i in range(group.order))


# --------------------------------------------------------------- full reports


def test_sunada_pairs_share_covering_reports(genus2, genus3, orbifold_h, psl32):
    # Gassmann equivalent subgroups have equal permutation characters, so
    # their quotients share all local data.
    cases = [(e.group, e.polygon, _divisors(e.group.order)) for e in (genus2, genus3, orbifold_h)]
    cases.append((psl32, _triangle_polygon(psl32), (4, 12, 24)))
    for group, polygon, orders in cases:
        found = 0
        for order in orders:
            for u, v, _ in find_sunada_pairs(group, SearchConfig(order=order)):
                assert covering_report(group, u, polygon) == covering_report(group, v, polygon)
                found += 1
        assert found


def test_covering_report_genus_two(genus2):
    for sub in (genus2.subgroup_u, genus2.subgroup_v):
        report = covering_report(genus2.group, sub, genus2.polygon)
        assert report.index == 12
        assert report.cycle_labels == ("a", "b", "c")
        assert report.cycle_orders == (3, 3, 6)
        assert report.smooth
        assert report.cone_points == ()
        assert report.chi_orb == Fraction(-2)
        assert report.chi_top == Fraction(-2)
        assert report.genus == 2
        assert report.note is None


def test_covering_report_genus_three(genus3):
    for sub in (genus3.subgroup_u, genus3.subgroup_v):
        report = covering_report(genus3.group, sub, genus3.polygon)
        assert report.index == 12
        assert report.cycle_orders == (4, 4, 6)
        assert report.smooth
        assert report.chi_orb == Fraction(-4)
        assert report.genus == 3


def test_covering_report_orbifold(orbifold_h):
    for sub in (orbifold_h.subgroup_u, orbifold_h.subgroup_v):
        report = covering_report(orbifold_h.group, sub, orbifold_h.polygon)
        assert report.index == 8
        assert report.cycle_orders == (2, 2, 2, 4)
        assert not report.smooth
        assert report.smooth_cycles == (False, True, False, True)
        assert report.chi_orb == Fraction(-2)
        # four order-2 cone points lift chi by 4 * 1/2
        assert report.chi_top == Fraction(0)
        assert report.genus == 1


def test_chi_top_consistency(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        for sub in (entry.subgroup_u, entry.subgroup_v, trivial_subgroup(entry.group)):
            report = covering_report(entry.group, sub, entry.polygon)
            lift = sum(
                Fraction(p.multiplicity) * (1 - Fraction(1, p.order))
                for p in report.cone_points
            )
            assert report.chi_top == report.chi_orb + lift
            assert report.chi_top.denominator == 1
            if report.genus is not None:
                assert report.chi_top == 2 - 2 * report.genus


def test_covering_report_flags_odd_characteristic(s3):
    t = s3.index_of(Perm((1, 0, 2)))
    spec = PolygonSpec(edge_pairs=1, cycles=(("t", t),))
    report = covering_report(s3, trivial_subgroup(s3), spec)
    assert report.chi_orb == Fraction(3)
    assert report.chi_top == Fraction(3)
    assert report.genus is None
    assert report.note is not None


def test_covering_report_json_shape(orbifold_h):
    d = covering_report_json(
        covering_report(orbifold_h.group, orbifold_h.subgroup_u, orbifold_h.polygon)
    )
    assert d["index"] == 8
    assert d["chi_orb"] == {"num": -2, "den": 1}
    assert d["chi_top"] == {"num": 0, "den": 1}
    assert d["genus"] == 1
    assert d["smooth"] is False
    assert d["cycles"] == [
        {"label": "a", "order": 2, "smooth": False},
        {"label": "b", "order": 2, "smooth": True},
        {"label": "c", "order": 2, "smooth": False},
        {"label": "abc", "order": 4, "smooth": True},
    ]
    assert d["cone_points"] == [
        {"label": "a", "order": 2, "multiplicity": 2},
        {"label": "c", "order": 2, "multiplicity": 2},
    ]


def test_polygon_cycle_indices_validated(s3):
    spec = PolygonSpec(edge_pairs=1, cycles=(("t", 99),))
    with pytest.raises(UsageError, match="unknown element index 99"):
        smoothness(s3, full_subgroup(s3), spec)
