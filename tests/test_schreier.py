"""Coset tables, Schreier coset graphs, and labeled digraph isomorphism."""

from __future__ import annotations

import random
import time

import pytest

from sunada import schreier
from sunada import (
    Perm,
    SchreierGraph,
    UsageError,
    coset_table,
    enumerate_subgroups,
    generate_group,
    graph_isomorphic,
    parse_cycles,
    schreier_graph,
    subgroup_from_members,
    subgroup_generate,
)
from conftest import conjugate, full_subgroup, subgroup_classes, trivial_subgroup


def _verify_bijection(g1, g2, phi, mode):
    """Definitional check: phi carries each label action of g1 onto the label
    action (direct) or inverse action (reversed) of g2."""
    n = g1.vertex_count
    for label in g1.labels:
        s1 = g1.perms[g1.labels.index(label)]
        s2 = g2.perms[g2.labels.index(label)]
        if mode == "reversed":
            inv = [0] * n
            for i, x in enumerate(s2):
                inv[x] = i
            s2 = tuple(inv)
        for v in range(n):
            if phi[s1[v]] != s2[phi[v]]:
                return False
    return True


# --------------------------------------------------------------- coset tables


def test_coset_table_partitions_group(genus2):
    g, u = genus2.group, genus2.subgroup_u
    table = coset_table(g, u)
    assert table.count == 12
    assert table.transversal[0] == g.identity
    # each coset has |U| elements and contains its representative
    from collections import Counter

    counts = Counter(table.coset_of)
    assert set(counts.values()) == {u.order}
    for k, rep in enumerate(table.transversal):
        assert table.coset_of[rep] == k
        for m in u.members:
            assert table.coset_of[g.mul(m, rep)] == k


@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h", "psl32"])
def test_coset_table_reaches_every_coset(name, request):
    """The generators generate the group, so the walk along them gives every
    element a coset, for one subgroup of each class."""
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    for order in (d for d in range(1, group.order + 1) if group.order % d == 0):
        for sub in subgroup_classes(group, order):
            table = coset_table(group, sub)
            assert -1 not in table.coset_of
            assert table.count * sub.order == group.order


def _both_sides(group, u):
    """``u``, which takes the coset table, and the least proper subgroup of
    least index, which takes the coset walk."""
    walked = next(sub for index in range(2, group.order + 1) if group.order % index == 0
                  for sub in enumerate_subgroups(group, group.order // index))
    assert schreier._walk_is_cheaper(group, walked)
    assert not schreier._walk_is_cheaper(group, u)
    return u, walked


def test_coset_action_is_right_action(genus2):
    """On both producers the arcs labeled x, y and xy satisfy
    v.(xy) = (v.x).y, and the identity fixes every coset."""
    g = genus2.group
    rng = random.Random(3)
    for sub in _both_sides(g, genus2.subgroup_u):
        for _ in range(10):
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            graph = schreier_graph(g, sub, [("x", x), ("y", y), ("xy", g.mul(x, y)),
                                            ("1", g.identity)])
            ax, ay, axy, one = graph.perms
            assert axy == tuple(ay[ax[v]] for v in range(sub.index))
            assert one == tuple(range(sub.index))


def test_coset_action_values_are_permutations(orbifold_h):
    """Every element of the group, as a label, moves the cosets by a
    permutation on both producers."""
    g = orbifold_h.group
    labels = [(str(e), e) for e in range(g.order)]
    for sub in _both_sides(g, orbifold_h.subgroup_u):
        for action in schreier_graph(g, sub, labels).perms:
            assert sorted(action) == list(range(sub.index))


# -------------------------------------------------------------- graph building


def test_schreier_graph_sizes(genus2):
    g, u = genus2.group, genus2.subgroup_u
    two = schreier_graph(g, u, genus2.polygon.cycles[:2])
    assert two.vertex_count == 12
    assert len(two.arcs) == 24
    three = schreier_graph(g, u, genus2.polygon.cycles)
    assert three.vertex_count == 12
    assert len(three.arcs) == 36
    assert three.labels == ("a", "b", "c")


def test_schreier_graph_per_label_degrees(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    for out in g.perms:
        # functional and injective: out-degree and in-degree are both 1
        assert sorted(out) == list(range(g.vertex_count))


def test_schreier_graph_arc_order_is_deterministic(genus2):
    g, u = genus2.group, genus2.subgroup_u
    graph = schreier_graph(g, u, genus2.polygon.cycles)
    maps = dict(zip(graph.labels, graph.perms))
    expected = tuple(
        (src, maps[label][src], label)
        for src in range(graph.vertex_count)
        for label in graph.labels
    )
    assert graph.arcs == expected


def test_schreier_graph_rejects_duplicate_labels(genus2):
    g, u = genus2.group, genus2.subgroup_u
    (_, ia), (_, ib) = genus2.polygon.cycles[:2]
    with pytest.raises(UsageError):
        schreier_graph(g, u, [("a", ia), ("a", ib)])


@pytest.mark.parametrize("index", [-1, 96])
def test_schreier_graph_rejects_element_index_out_of_range(genus2, index):
    g = genus2.group
    assert g.order == 96
    for sub in _both_sides(g, genus2.subgroup_u):
        with pytest.raises(UsageError, match="out of range"):
            schreier_graph(g, sub, [("x", 1), ("y", index), ("xy", 1)])


def test_arcs_are_in_source_label_order_for_unsorted_labels():
    graph = SchreierGraph(3, ("b", "a"), ((0, 2, 1), (1, 2, 0)))
    assert graph.arcs == ((0, 1, "a"), (0, 0, "b"), (1, 2, "a"), (1, 2, "b"),
                          (2, 0, "a"), (2, 1, "b"))
    assert graph.perms[graph.labels.index("b")] == (0, 2, 1)


def test_full_quotient_is_single_vertex_with_loops(genus2):
    g = schreier_graph(genus2.group, full_subgroup(genus2.group), genus2.polygon.cycles)
    assert g.vertex_count == 1
    assert g.arcs == ((0, 0, "a"), (0, 0, "b"), (0, 0, "c"))


# ------------------------------------------- the coset walk and the coset table

# Point and line stabilisers of PSL(3,2); the two A5 classes of PSL(2,11).
_PSL_PAIRS = {
    "psl32": (7, ("(1,5)(2,6)", "(1,4,6)(2,3,5)"), ("(0,2)(4,6)", "(0,2,1)(3,5,6)")),
    "psl211": (11, ("(1,9)(2,3)(4,8)(5,6)", "(1,7,4)(3,8,6)(5,10,9)"),
               ("(1,9)(2,3)(4,8)(5,6)", "(0,4,6)(1,2,3)(7,9,10)")),
}


def _psl_pair(group, name):
    degree, *gens = _PSL_PAIRS[name]
    return [subgroup_generate(group, [group.index_of(parse_cycles(t, degree)) for t in words])
            for words in gens]


def _table_graph(group, sub, labels):
    """The graph read off ``coset_table``: label e sends coset i, of
    representative t_i, to the coset of t_i e."""
    table = coset_table(group, sub)
    return SchreierGraph(table.count, [name for name, _ in labels],
                         [[table.coset_of[group.mul(t, e)] for t in table.transversal]
                          for _, e in labels])


@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h", "psl32", "psl211"])
def test_both_producers_give_the_table_graph(name, request):
    """For one subgroup of every class, ``schreier_graph`` and the coset walk
    itself equal the graph read off ``coset_table``, with the generators as
    labels in reversed order and two that are not: x and x g0."""
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    x = next(e for e in range(group.order) if e not in group.generators)
    y = group.generators[0]
    labels = [(f"g{k}", e) for k, e in enumerate(group.generators)][::-1] + [
        ("x", x), ("xy", group.mul(x, y))]
    sides = set()
    for order in (d for d in range(1, group.order + 1) if group.order % d == 0):
        for sub in subgroup_classes(group, order):
            expected = _table_graph(group, sub, labels)
            assert schreier_graph(group, sub, labels) == expected
            walked = schreier._coset_walk(group, sub, [e for _, e in labels])
            assert SchreierGraph(sub.index, expected.labels, walked) == expected
            sides.add(schreier._walk_is_cheaper(group, sub))
    assert sides == {True, False}


def test_both_producers_give_the_table_graph_on_tuple_keys():
    """At degree 257 permutations are keyed by image tuples.  In the dihedral
    group of order 514, U = <257-cycle> (index 2) takes the walk and U = <a
    reflection> (index 257) the table; both give the table graph.  Not every
    subgroup class is tried: the walk on the trivial one is slow."""
    n = 257
    rotation = Perm(tuple(range(1, n)) + (0,))
    reflection = Perm(tuple(-i % n for i in range(n)))
    group = generate_group([rotation, reflection])
    assert group.order == 2 * n
    r, s = group.index_of(rotation), group.index_of(reflection)
    labels = [("r", r), ("s", s), ("x", group.mul(r, s))]
    sides = []
    for gen in (r, s):
        sub = subgroup_generate(group, [gen])
        assert schreier_graph(group, sub, labels) == _table_graph(group, sub, labels)
        sides.append(schreier._walk_is_cheaper(group, sub))
    assert sides == [True, False]


def test_size_rule_on_named_subgroups(genus2, genus3, orbifold_h, psl32, psl211):
    """The PSL pairs (index 7 and 11) take the walk.  The catalog pairs and
    every trivial subgroup take the table: on the trivial subgroup of
    PSL(2,11) the walk is about 50 times slower."""
    for group, name in ((psl32, "psl32"), (psl211, "psl211")):
        for sub in _psl_pair(group, name):
            assert schreier._walk_is_cheaper(group, sub)
    for entry in (genus2, genus3, orbifold_h):
        for sub in (entry.subgroup_u, entry.subgroup_v):
            assert not schreier._walk_is_cheaper(entry.group, sub)
    for group in (genus2.group, genus3.group, orbifold_h.group, psl32, psl211):
        assert not schreier._walk_is_cheaper(group, trivial_subgroup(group))


def test_walk_side_builds_no_coset_table(psl211, monkeypatch):
    def no_table(*args):
        raise AssertionError("coset_table called on the walk side")

    monkeypatch.setattr(schreier, "coset_table", no_table)
    labels = [("a", psl211.generators[0]), ("b", psl211.generators[1])]
    u, v = _psl_pair(psl211, "psl211")
    assert schreier_graph(psl211, u, labels).vertex_count == 11
    assert schreier_graph(psl211, v, labels).vertex_count == 11


# ---------------------------------------------------------------- isomorphism


def test_genus2_graphs_direct_absent_reversed_present(genus2):
    labels = genus2.polygon.cycles[:2]
    g1 = schreier_graph(genus2.group, genus2.subgroup_u, labels)
    g2 = schreier_graph(genus2.group, genus2.subgroup_v, labels)
    assert graph_isomorphic(g1, g2, "direct") is None
    phi = graph_isomorphic(g1, g2, "reversed")
    assert phi is not None
    assert sorted(phi) == list(range(12))
    assert _verify_bijection(g1, g2, phi, "reversed")


def test_genus2_three_label_graphs_admit_no_isomorphism(genus2):
    # with c = (a b)^-1 present a reversed bijection would force the two coset
    # actions of ab and ba to agree, which they do not here
    g1 = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    g2 = schreier_graph(genus2.group, genus2.subgroup_v, genus2.polygon.cycles)
    assert graph_isomorphic(g1, g2, "direct") is None
    assert graph_isomorphic(g1, g2, "reversed") is None


def test_isomorphism_is_symmetric(genus2):
    labels = genus2.polygon.cycles[:2]
    g1 = schreier_graph(genus2.group, genus2.subgroup_u, labels)
    g2 = schreier_graph(genus2.group, genus2.subgroup_v, labels)
    fwd = graph_isomorphic(g1, g2, "reversed")
    back = graph_isomorphic(g2, g1, "reversed")
    assert fwd is not None and back is not None
    assert _verify_bijection(g2, g1, back, "reversed")


def test_self_isomorphism_returns_identity(genus2):
    g1 = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    assert graph_isomorphic(g1, g1, "direct") == tuple(range(12))


def test_conjugate_subgroups_give_directly_isomorphic_graphs(s4):
    rng = random.Random(17)
    labels = [(f"g{k}", idx) for k, idx in enumerate(s4.generators)]
    for _ in range(5):
        sub = subgroup_generate(s4, rng.sample(range(s4.order), 2))
        g = rng.randrange(s4.order)
        conj = subgroup_from_members(s4, conjugate(s4, sub.members, g))
        g1 = schreier_graph(s4, sub, labels)
        g2 = schreier_graph(s4, conj, labels)
        phi = graph_isomorphic(g1, g2, "direct")
        assert phi is not None
        assert _verify_bijection(g1, g2, phi, "direct")


def test_isomorphism_requires_matching_shape(genus2, s4):
    g1 = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles[:2])
    labels = [(f"g{k}", idx) for k, idx in enumerate(s4.generators)]
    g3 = schreier_graph(s4, subgroup_generate(s4, []), labels)
    assert graph_isomorphic(g1, g3, "direct") is None
    with pytest.raises(UsageError):
        graph_isomorphic(g1, g1, "sideways")


def _networkx_graph(nx, graph):
    multi = nx.MultiDiGraph()
    multi.add_nodes_from(range(graph.vertex_count))
    multi.add_edges_from((src, dst, {"label": label}) for src, dst, label in graph.arcs)
    return multi


@pytest.mark.parametrize("mode", ["direct", "reversed"])
def test_graph_isomorphic_matches_networkx(mode, genus2, genus3, orbifold_h, s4, psl32):
    """Verdicts agree with label-matching MultiDiGraph isomorphism, against
    the arc-reversed second graph in reversed mode.  Single-label graphs are
    disconnected, so components are matched there with both verdicts."""
    nx = pytest.importorskip("networkx")
    same_labels = nx.algorithms.isomorphism.categorical_multiedge_match("label", None)
    pairs = [(entry.group, entry.subgroup_u, entry.subgroup_v, labels)
             for entry in (genus2, genus3, orbifold_h)
             for labels in (entry.polygon.cycles, entry.polygon.cycles[:2],
                            entry.polygon.cycles[:1])]
    rng = random.Random(5)
    s4_labels = [(f"g{k}", idx) for k, idx in enumerate(s4.generators)]
    for _ in range(12):
        u = subgroup_generate(s4, [rng.randrange(s4.order)])
        v = subgroup_generate(s4, [rng.randrange(s4.order)])
        pairs += [(s4, u, v, s4_labels), (s4, u, v, s4_labels[:1])]
    point = subgroup_generate(psl32, [psl32.index_of(parse_cycles(t, 7))
                                      for t in ("(1,5)(2,6)", "(1,4,6)(2,3,5)")])
    line = subgroup_generate(psl32, [psl32.index_of(parse_cycles(t, 7))
                                     for t in ("(0,2)(4,6)", "(0,2,1)(3,5,6)")])
    pairs.append((psl32, point, line, [("a", psl32.generators[0]), ("b", psl32.generators[1])]))

    verdicts = set()
    for group, u, v, labels in pairs:
        g1, g2 = schreier_graph(group, u, labels), schreier_graph(group, v, labels)
        source, target = _networkx_graph(nx, g1), _networkx_graph(nx, g2)
        if mode == "reversed":
            target = target.reverse()
        expected = nx.is_isomorphic(source, target, edge_match=same_labels)
        phi = graph_isomorphic(g1, g2, mode)
        assert (phi is not None) == expected
        if phi is not None:
            assert _verify_bijection(g1, g2, phi, mode)
        verdicts.add((expected, nx.is_weakly_connected(source)))
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


def test_graph_isomorphic_matches_many_components_without_search():
    def loops(n):
        return SchreierGraph(n, ("a",), (tuple(range(n)),))

    swap = SchreierGraph(200, ("a",), ((1, 0) + tuple(range(2, 200)),))
    assert graph_isomorphic(loops(1500), loops(1500)) == tuple(range(1500))
    many = loops(12000)
    start = time.perf_counter()
    assert graph_isomorphic(many, many) == tuple(range(12000))
    assert time.perf_counter() - start < 1.0
    assert graph_isomorphic(loops(200), swap) is None
    assert graph_isomorphic(loops(200), swap, "reversed") is None


# -------------------------------------------------------------------- exports


def test_to_dot_single_vertex_exact_bytes(genus2):
    g = schreier_graph(genus2.group, full_subgroup(genus2.group), genus2.polygon.cycles[:1])
    assert g.to_dot() == 'digraph schreier {\n  v0;\n  v0 -> v0 [label="a"];\n}\n'


def test_to_dot_genus2_structure(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    dot = g.to_dot()
    lines = dot.splitlines()
    assert lines[0] == "digraph schreier {"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    arc_lines = [ln for ln in lines if " -> " in ln]
    assert len(arc_lines) == 36
    sigma_a = g.perms[g.labels.index("a")]
    assert f'  v0 -> v{sigma_a[0]} [label="a"];' in arc_lines


def test_to_dot_escapes_label_text(s3):
    sub = full_subgroup(s3)
    g = schreier_graph(s3, sub, [('q"\\', s3.generators[0])])
    assert '[label="q\\"\\\\"];' in g.to_dot()


def test_graph_json_dict_round_trip(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    d = g.to_json_dict()
    assert d["vertices"] == 12
    assert d["labels"] == ["a", "b", "c"]
    assert len(d["arcs"]) == 36
    assert all(set(a) == {"src", "dst", "label"} for a in d["arcs"])
    perms = {label: [-1] * d["vertices"] for label in d["labels"]}
    for a in d["arcs"]:
        perms[a["label"]][a["src"]] = a["dst"]
    rebuilt = SchreierGraph(
        vertex_count=d["vertices"],
        labels=tuple(d["labels"]),
        perms=tuple(tuple(perms[label]) for label in d["labels"]),
    )
    assert graph_isomorphic(g, rebuilt, "direct") == tuple(range(12))
    assert rebuilt == g
