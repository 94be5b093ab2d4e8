"""Top-level acceptance gate.

Each test checks one numbered criterion end to end and records a verdict
line; the lines are echoed in the terminal summary (see conftest) so a run
shows one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from sunada import (
    DenseSymMatrix,
    Mat2,
    SearchConfig,
    adjacency_matrix,
    coset_table,
    covering_report,
    eigenvalues_symmetric,
    find_sunada_pairs,
    is_sunada_triple,
    schreier_graph,
    simultaneous_conjugator,
    spectra_equal,
    subgroup_from_members,
    subgroup_generate,
    graph_isomorphic,
)
from conftest import conjugate, order_of

TOY_TOL = 1e-12
TRACE_TOL = 1e-8

VERDICT_LINES: list[str] = []

# Generators of a transversal of the genus3 subgroup U1: the first equals the
# c generator, the second is the central scaling by 3.
GENUS3_TRANSVERSAL_GENS = (((3, 3), (1, 2)), ((3, 0), (0, 3)))


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        VERDICT_LINES.append(f"ACCEPTANCE FAIL: criterion {number} ({title})")
        raise
    VERDICT_LINES.append(f"ACCEPTANCE PASS: criterion {number} ({title})")


def test_criterion_01_group_orders(genus2, genus3, orbifold_h):
    with criterion(1, "group orders 96 / 96 / 32"):
        assert genus2.group.order == 96
        assert genus3.group.order == 96
        assert orbifold_h.group.order == 32
        # independent counts: invertible 2x2 matrices mod 4, and pairs
        # (unit, translation) mod 8
        unit_dets = sum(
            1
            for a in range(4) for b in range(4) for c in range(4) for d in range(4)
            if math.gcd(a * d - b * c, 4) == 1
        )
        assert unit_dets == 96
        assert len([(u, v) for u in (1, 3, 5, 7) for v in range(8)]) == 32


def test_criterion_02_generator_orders(genus2, genus3, orbifold_h):
    with criterion(2, "generator orders (3,3,6) / (4,4,6) / (2,2,2,4)"):
        for entry, expected in (
            (genus2, (3, 3, 6)),
            (genus3, (4, 4, 6)),
            (orbifold_h, (2, 2, 2, 4)),
        ):
            orders = tuple(order_of(entry.group, idx) for _, idx in entry.polygon.cycles)
            assert orders == expected


def test_criterion_03_sunada_verdicts(genus2, genus3, orbifold_h):
    with criterion(3, "Gassmann yes, conjugator absent, generator classes avoided"):
        for entry in (genus2, genus3, orbifold_h):
            report = is_sunada_triple(entry.group, entry.subgroup_u, entry.subgroup_v)
            assert report.gassmann
            assert report.conjugator is None
            assert report.is_sunada_triple
        for entry in (genus2, genus3):
            g = entry.group
            report = is_sunada_triple(g, entry.subgroup_u, entry.subgroup_v)
            for _, idx in entry.polygon.cycles:
                power = idx
                for _ in range(1, order_of(g, idx)):
                    cls = g.class_index(power)
                    assert report.profile_u[cls] == 0
                    assert report.profile_v[cls] == 0
                    power = g.mul(power, idx)


def test_criterion_04_euler_characteristics(genus2, genus3):
    with criterion(4, "chi = -2 genus 2 and chi = -4 genus 3, exact"):
        for entry, chi, genus in ((genus2, Fraction(-2), 2), (genus3, Fraction(-4), 3)):
            for sub in (entry.subgroup_u, entry.subgroup_v):
                report = covering_report(entry.group, sub, entry.polygon)
                assert report.chi_orb == chi
                assert report.chi_top == chi
                assert report.genus == genus
                assert report.smooth


def test_criterion_05_orbifold_cone_points(orbifold_h):
    with criterion(5, "orbifold pair: chi_orb = -2, all cone points of order 2"):
        for sub in (orbifold_h.subgroup_u, orbifold_h.subgroup_v):
            report = covering_report(orbifold_h.group, sub, orbifold_h.polygon)
            assert not report.smooth
            assert report.chi_orb == Fraction(-2)
            assert report.cone_points
            assert all(p.order == 2 for p in report.cone_points)
            # count pinned by the orbit oracle: two points over cycle a and
            # two over cycle c, four in total
            assert sum(p.multiplicity for p in report.cone_points) == 4
            assert {(p.label, p.multiplicity) for p in report.cone_points} == {
                ("a", 2),
                ("c", 2),
            }


def test_criterion_06_schreier_graphs(genus2):
    with criterion(6, "12-vertex quotient graphs, direct absent, reversed present"):
        labels = genus2.polygon.cycles[:2]
        g1 = schreier_graph(genus2.group, genus2.subgroup_u, labels)
        g2 = schreier_graph(genus2.group, genus2.subgroup_v, labels)
        for g in (g1, g2):
            assert g.vertex_count == 12
            for perm in g.perms:
                # per-label out- and in-degree 1: the arc map is a bijection
                assert sorted(perm) == list(range(12))
        assert graph_isomorphic(g1, g2, "direct") is None
        phi = graph_isomorphic(g1, g2, "reversed")
        assert phi is not None
        for label in g1.labels:
            s1, s2 = g1.perms[g1.labels.index(label)], g2.perms[g2.labels.index(label)]
            inv2 = [0] * 12
            for i, x in enumerate(s2):
                inv2[x] = i
            assert all(phi[s1[v]] == inv2[phi[v]] for v in range(12))


def _random_conjugate_spectra(group, rng, count):
    labels = [(f"g{k}", idx) for k, idx in enumerate(group.generators)]
    checks = []
    for _ in range(count):
        sub = subgroup_generate(group, rng.sample(range(group.order), 2))
        g = rng.randrange(group.order)
        conj = subgroup_from_members(group, conjugate(group, sub.members, g))
        s1 = eigenvalues_symmetric(adjacency_matrix(schreier_graph(group, sub, labels)))
        s2 = eigenvalues_symmetric(adjacency_matrix(schreier_graph(group, conj, labels)))
        checks.append((s1, s2))
    return checks


def test_criterion_07_graph_isospectrality(genus2, genus3, orbifold_h, s4):
    with criterion(7, "isospectral quotient pairs within 1e-9, plus 20 random pairs"):
        for entry in (genus2, genus3, orbifold_h):
            g1 = schreier_graph(entry.group, entry.subgroup_u, entry.polygon.cycles)
            g2 = schreier_graph(entry.group, entry.subgroup_v, entry.polygon.cycles)
            s1 = eigenvalues_symmetric(adjacency_matrix(g1))
            s2 = eigenvalues_symmetric(adjacency_matrix(g2))
            assert spectra_equal(s1, s2)
        rng = random.Random(2024)
        pairs = _random_conjugate_spectra(s4, rng, 8)
        for entry in (genus2, genus3, orbifold_h):
            pairs += _random_conjugate_spectra(entry.group, rng, 4)
        assert len(pairs) == 20
        for s1, s2 in pairs:
            assert spectra_equal(s1, s2)


def test_criterion_08_numeric_sanity(genus2, genus3, orbifold_h):
    with criterion(8, "toy spectra within 1e-12 and trace identities"):
        swap = eigenvalues_symmetric(DenseSymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(swap.eigenvalues[0] + 1.0) < TOY_TOL
        assert abs(swap.eigenvalues[1] - 1.0) < TOY_TOL
        k3 = eigenvalues_symmetric(
            DenseSymMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        )
        for got, want in zip(k3.eigenvalues, (-1.0, -1.0, 2.0)):
            assert abs(got - want) < TOY_TOL

        matrices = [
            DenseSymMatrix([[0.0, 1.0], [1.0, 0.0]]),
            DenseSymMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        ]
        for entry in (genus2, genus3, orbifold_h):
            for sub in (entry.subgroup_u, entry.subgroup_v):
                graph = schreier_graph(entry.group, sub, entry.polygon.cycles)
                matrices.append(adjacency_matrix(graph))
        for mat in matrices:
            report = eigenvalues_symmetric(mat)
            a = mat.entries
            assert abs(sum(report.eigenvalues) - float(np.trace(a))) < TRACE_TOL
            assert abs(
                sum(v * v for v in report.eigenvalues) - float(np.trace(a @ a))
            ) < TRACE_TOL


def test_criterion_09_search(genus2, s3):
    with criterion(9, "search finds the smooth order-8 pair and nothing in S3"):
        start = time.monotonic()
        assert find_sunada_pairs(s3, SearchConfig(order=2)) == []
        pairs = find_sunada_pairs(
            genus2.group, SearchConfig(order=8, require_smooth=genus2.polygon)
        )
        elapsed = time.monotonic() - start
        assert pairs
        assert any(
            simultaneous_conjugator(
                genus2.group, (u, v), (genus2.subgroup_u, genus2.subgroup_v)
            )
            is not None
            for u, v, _ in pairs
        )
        assert elapsed < 30.0


def test_criterion_10_transversal_subgroup(genus3):
    with criterion(10, "transversal subgroup of order 12 hits each coset once"):
        g = genus3.group
        gens = [g.index_of(Mat2(4, entries)) for entries in GENUS3_TRANSVERSAL_GENS]
        trans = subgroup_generate(g, gens)
        assert trans.order == 12
        table = coset_table(g, genus3.subgroup_u)
        assert table.count == 12
        hits = [0] * table.count
        for m in trans.members:
            hits[table.coset_of[m]] += 1
        assert hits == [1] * 12
