"""Polygon specs, smoothness, Euler characteristics, and cone points."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from sunada import (
    ConePoint,
    Perm,
    PolygonSpec,
    UsageError,
    cone_points,
    covering_report,
    covering_report_json,
    element_order,
    orbifold_euler,
    smoothness,
    subgroup_generate,
)
from conftest import full_subgroup, trivial_subgroup


def _orbit_sizes(group, sub, elem_idx):
    """Multiset of coset orbit sizes under right multiplication, computed from
    raw coset sets rather than through the coset table."""
    coset_keys: dict[frozenset, None] = {}
    for x in range(group.order):
        coset_keys.setdefault(frozenset(group.mul(u, x) for u in sub.members), None)

    def step(coset):
        return frozenset(group.mul(x, elem_idx) for x in coset)

    seen: set[frozenset] = set()
    sizes = []
    for coset in coset_keys:
        if coset in seen:
            continue
        size = 0
        cur = coset
        while cur not in seen:
            seen.add(cur)
            size += 1
            cur = step(cur)
        sizes.append(size)
    return sorted(sizes)


def _expected_cone_counts(group, sub, elem_idx):
    """Cone order -> multiplicity derived from the orbit size multiset."""
    m = element_order(group.element(elem_idx))
    sizes = _orbit_sizes(group, sub, elem_idx)
    assert sum(sizes) == sub.index
    return Counter(m // d for d in sizes if d < m)


# ----------------------------------------------------------------- validation


def test_polygon_spec_rejects_bad_shapes(s3):
    t = s3.index_of(Perm((1, 0, 2)))
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=0, cycles=(("t", t),))
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=1, cycles=())
    with pytest.raises(UsageError):
        PolygonSpec(edge_pairs=1, cycles=(("t", t), ("t", t)))


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
    assert orbifold_euler(genus2.group, genus2.subgroup_u, genus2.polygon) == Fraction(-2)
    assert orbifold_euler(genus2.group, genus2.subgroup_v, genus2.polygon) == Fraction(-2)
    assert orbifold_euler(genus3.group, genus3.subgroup_u, genus3.polygon) == Fraction(-4)
    assert orbifold_euler(orbifold_h.group, orbifold_h.subgroup_u, orbifold_h.polygon) == Fraction(-2)


def test_orbifold_euler_scales_with_index(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        base = orbifold_euler(entry.group, full_subgroup(entry.group), entry.polygon)
        for sub in (entry.subgroup_u, entry.subgroup_v, trivial_subgroup(entry.group)):
            assert orbifold_euler(entry.group, sub, entry.polygon) == sub.index * base


# ---------------------------------------------------------------- cone points


def test_cone_points_match_orbit_oracle(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        for sub in (entry.subgroup_u, entry.subgroup_v):
            points = cone_points(entry.group, sub, entry.polygon)
            by_label: dict[str, Counter] = {}
            for p in points:
                by_label.setdefault(p.label, Counter())[p.order] += p.multiplicity
            for label, idx in entry.polygon.cycles:
                expected = _expected_cone_counts(entry.group, sub, idx)
                assert by_label.get(label, Counter()) == expected


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


# --------------------------------------------------------------- full reports


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
