"""Element arithmetic, cycle parsing, and group closure."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunada import (
    CycleParseError,
    Mat2,
    Perm,
    ResourceError,
    SemiPair,
    UsageError,
    compose,
    conjugacy_classes,
    cycle_string,
    element_order,
    generate_group,
    identity_like,
    inverse,
    parse_cycles,
)

A12_A = "(0,7,11)(1,5,6)(2,9,10)(3,4,8)"
A12_B = "(0,4,2)(1,5,9)(3,7,11)(6,10,8)"
A12_C = "(0,10,5,6,4,11)(1,2,3,7,8,9)"


# ---------------------------------------------------------------- permutations


def test_parse_cycles_round_trips_canonical_strings():
    for text in (A12_A, A12_B, A12_C):
        assert cycle_string(parse_cycles(text, 12)) == text


def test_parse_cycles_empty_is_identity():
    p = parse_cycles("", 12)
    assert p == Perm(tuple(range(12)))
    assert cycle_string(p) == ""


def test_parse_cycles_ignores_whitespace():
    assert parse_cycles(" ( 0 , 1 ) ( 2 , 3 ) ", 4) == parse_cycles("(0,1)(2,3)", 4)


@pytest.mark.parametrize(
    "text",
    ["(0,1", "(0,0)", "(0,99)", "(5)", "0,1", "(a,b)", "(0,1)x", "(0,1)(1,2)"],
)
def test_parse_cycles_rejects_malformed_text(text):
    with pytest.raises(CycleParseError) as excinfo:
        parse_cycles(text, 12)
    assert 0 <= excinfo.value.position <= len(text)


def test_parse_cycles_rejects_nonpositive_degree():
    with pytest.raises(UsageError):
        parse_cycles("", 0)


def test_composition_applies_left_factor_first():
    a = parse_cycles("(0,1)", 3)
    b = parse_cycles("(1,2)", 3)
    # point 0 goes to 1 under a, then to 2 under b
    assert compose(a, b).images[0] == 2
    assert compose(b, a).images[0] == 1


def test_printed_generators_satisfy_abc_identity():
    a = parse_cycles(A12_A, 12)
    b = parse_cycles(A12_B, 12)
    c = parse_cycles(A12_C, 12)
    assert inverse(compose(a, b)) == c
    assert compose(compose(a, b), c) == identity_like(a)
    assert (element_order(a), element_order(b), element_order(c)) == (3, 3, 6)


def test_perm_rejects_non_bijective_images():
    with pytest.raises(UsageError):
        Perm((0, 0, 1))


@st.composite
def perm_triples(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    imgs = st.permutations(tuple(range(n)))
    return (
        Perm(tuple(draw(imgs))),
        Perm(tuple(draw(imgs))),
        Perm(tuple(draw(imgs))),
    )


@settings(max_examples=60, deadline=None)
@given(perm_triples())
def test_perm_group_axioms(triple):
    a, b, c = triple
    e = identity_like(a)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, e) == a
    assert compose(e, a) == a
    assert compose(a, inverse(a)) == e
    assert compose(inverse(a), a) == e


@settings(max_examples=60, deadline=None)
@given(perm_triples())
def test_perm_order_is_minimal_power(triple):
    a, _, _ = triple
    k = element_order(a)
    acc = identity_like(a)
    powers = []
    for _ in range(k):
        acc = compose(acc, a)
        powers.append(acc)
    assert powers[-1] == identity_like(a)
    assert all(p != identity_like(a) for p in powers[:-1])


@settings(max_examples=60, deadline=None)
@given(perm_triples())
def test_cycle_string_round_trip(triple):
    a, _, _ = triple
    assert parse_cycles(cycle_string(a), a.degree) == a


# -------------------------------------------------------------- 2x2 matrices

G3_A = ((3, 2), (3, 3))
G3_B = ((1, 3), (2, 3))
G3_C = ((3, 3), (1, 2))


def test_mat2_requires_unit_determinant():
    with pytest.raises(UsageError):
        Mat2(4, ((2, 0), (0, 1)))
    with pytest.raises(UsageError):
        Mat2(4, ((1, 0), (0, 2)))


def test_mat2_normalizes_entries_mod_modulus():
    m = Mat2(4, ((5, -1), (0, 1)))
    assert m.entries == ((1, 3), (0, 1))


def test_matrix_generators_compose_to_printed_product():
    a, b, c = Mat2(4, G3_A), Mat2(4, G3_B), Mat2(4, G3_C)
    assert compose(a, b) == c
    assert (element_order(a), element_order(b), element_order(c)) == (4, 4, 6)


def _mat_oracle(m, x, y):
    # plain 2x2 product, written out independently of compose
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return (
        ((a * p + b * r) % m, (a * q + b * s) % m),
        ((c * p + d * r) % m, (c * q + d * s) % m),
    )


@st.composite
def mat2_pairs(draw):
    import math

    m = draw(st.sampled_from((2, 3, 4, 5)))
    ent = st.tuples(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
    )

    def unit(e):
        (a, b), (c, d) = e
        return math.gcd(a * d - b * c, m) == 1

    x = draw(ent.filter(unit))
    y = draw(ent.filter(unit))
    return m, x, y


@settings(max_examples=60, deadline=None)
@given(mat2_pairs())
def test_mat2_product_matches_oracle(data):
    m, x, y = data
    assert compose(Mat2(m, x), Mat2(m, y)).entries == _mat_oracle(m, x, y)
    assert compose(Mat2(m, x), inverse(Mat2(m, x))) == identity_like(Mat2(m, x))


# ------------------------------------------------------------ semidirect pairs

H_A = (3, 2)
H_B = (7, 1)
H_C = (7, 2)


def _semi_oracle(m, p1, p2):
    # (u, v) acts as x -> u*x + v on Z/m; composition left factor first
    u1, v1 = p1
    u2, v2 = p2
    return ((u1 * u2) % m, (v1 + u1 * v2) % m)


def _h_elements():
    return [(u, v) for u in (1, 3, 5, 7) for v in range(8)]


def test_semipair_requires_unit_scale():
    with pytest.raises(UsageError):
        SemiPair(8, 2, 0)
    with pytest.raises(UsageError):
        SemiPair(8, 4, 3)


def test_semipair_normalizes_mod_modulus():
    p = SemiPair(8, 11, -5)
    assert (p.u, p.v) == (3, 3)


def test_semipair_product_matches_oracle_exhaustively():
    for p1, p2 in itertools.product(_h_elements(), repeat=2):
        got = compose(SemiPair(8, *p1), SemiPair(8, *p2))
        assert (got.u, got.v) == _semi_oracle(8, p1, p2)


def test_semipair_inverse_matches_exhaustive_scan():
    # the unique two-sided inverse of (3, 7) found by scanning all 32 elements
    target = [
        p
        for p in _h_elements()
        if _semi_oracle(8, p, (3, 7)) == (1, 0) and _semi_oracle(8, (3, 7), p) == (1, 0)
    ]
    assert target == [(3, 3)]
    inv = inverse(SemiPair(8, 3, 7))
    assert (inv.u, inv.v) == (3, 3)


def test_semipair_generator_orders():
    a, b, c = SemiPair(8, *H_A), SemiPair(8, *H_B), SemiPair(8, *H_C)
    abc = compose(compose(a, b), c)
    assert [element_order(x) for x in (a, b, c, abc)] == [2, 2, 2, 4]


def test_compose_rejects_mixed_families():
    with pytest.raises(UsageError):
        compose(Perm((1, 0)), Mat2(4, ((1, 0), (0, 1))))
    with pytest.raises(UsageError):
        compose(SemiPair(8, 3, 0), SemiPair(4, 3, 0))
    with pytest.raises(UsageError):
        compose(Perm((1, 0)), Perm((1, 2, 0)))


# ------------------------------------------------------------- group closure


def test_generate_group_symmetric_three(s3):
    assert s3.order == 6
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_generate_group_is_deterministic():
    gens = [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]
    g1 = generate_group(gens)
    g2 = generate_group(list(reversed(gens)))
    assert g1.elements == g2.elements


def test_generate_group_respects_element_cap():
    seven_cycle = Perm((1, 2, 3, 4, 5, 6, 0))
    with pytest.raises(ResourceError):
        generate_group([seven_cycle], max_elements=5)


def test_generate_group_rejects_empty_generator_list():
    with pytest.raises(UsageError):
        generate_group([])


def test_group_table_matches_element_arithmetic(orbifold_h):
    g = orbifold_h.group
    assert g.order == 32
    for i in range(g.order):
        for j in range(g.order):
            prod = g.element(g.mul(i, j))
            ei, ej = g.element(i), g.element(j)
            assert (prod.u, prod.v) == _semi_oracle(8, (ei.u, ei.v), (ej.u, ej.v))


def test_group_inverse_power_conjugate(s4):
    for i in range(s4.order):
        assert s4.mul(i, s4.inv(i)) == s4.identity
        assert s4.power(i, 0) == s4.identity
        assert s4.power(i, 3) == s4.mul(i, s4.mul(i, i))
        assert s4.power(i, -1) == s4.inv(i)
    g, x = 5, 7
    assert s4.element(s4.conjugate(g, x)) == compose(
        compose(s4.element(g), s4.element(x)), inverse(s4.element(g))
    )


def test_identity_index_resolves_to_identity(s4):
    assert s4.element(s4.identity) == Perm((0, 1, 2, 3))


def test_conjugacy_classes_partition_group(s4):
    classes = conjugacy_classes(s4)
    assert classes == s4.conjugacy_classes()
    seen = sorted(i for c in classes for i in c)
    assert seen == list(range(s4.order))
    # S4 class sizes: 1, 6, 3, 8, 6
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    for c in classes:
        for i in c:
            assert s4.class_index(i) == s4.class_index(c[0])
    # classes are closed under conjugation by every generator
    for c in classes:
        members = set(c)
        for g in s4.generators:
            assert {s4.conjugate(g, x) for x in members} == members


def test_conjugation_orbit_matches_conjugating_by_every_element(s4):
    sets = ({1, 2}, {s4.identity, 5})
    orbit = s4.conjugation_orbit(sets)
    assert orbit[0] == tuple(frozenset(x) for x in sets)
    assert len(set(orbit)) == len(orbit)
    assert set(orbit) == {
        tuple(frozenset(s4.conjugate(g, x) for x in members) for members in sets)
        for g in range(s4.order)
    }


def test_conjugacy_classes_are_in_canonical_order(genus2):
    classes = genus2.group.conjugacy_classes()
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    assert all(list(c) == sorted(c) for c in classes)


# Generators of the benchmark's PSL groups: PSL(3,2) on the 7 points of the
# Fano plane and PSL(2,11) on 11 points, with class sizes from the ATLAS.
PSL_GENERATORS = {
    "PSL(3,2)": (7, ["(1,5)(2,6)", "(0,3,1)(2,4,5)"], [1, 21, 24, 24, 42, 56]),
    "PSL(2,11)": (11, ["(1,9)(2,3)(4,8)(5,6)", "(0,1,10)(2,4,9)(5,7,8)"],
                  [1, 55, 60, 60, 110, 110, 132, 132]),
}


@pytest.mark.parametrize("name", sorted(PSL_GENERATORS))
def test_conjugacy_classes_match_sympy(name):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, cycles, sizes = PSL_GENERATORS[name]
    perms = [parse_cycles(text, degree) for text in cycles]
    group = generate_group(perms)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p.images)) for p in perms])
    assert group.order == oracle.order()
    got = sorted(len(c) for c in group.conjugacy_classes())
    assert got == sorted(len(c) for c in oracle.conjugacy_classes()) == sizes


def _projective_plane_action(matrix, p):
    """The permutation a 3x3 matrix over F_p induces on the points of P^2(F_p),
    each point normalised so its first nonzero coordinate is 1."""
    def normalise(v):
        lead = next(c for c in v if c)
        scale = pow(lead, -1, p)
        return tuple(c * scale % p for c in v)

    points = sorted({normalise(v) for v in itertools.product(range(p), repeat=3) if any(v)})
    index = {pt: i for i, pt in enumerate(points)}
    return Perm(tuple(
        index[normalise(tuple(sum(row[c] * pt[c] for c in range(3)) % p for row in matrix))]
        for pt in points))


def test_psl33_conjugacy_classes():
    transvection = _projective_plane_action([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3)
    cycle = _projective_plane_action([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)
    assert transvection.degree == 13
    group = generate_group([transvection, cycle])
    assert group.order == 5616
    classes = group.conjugacy_classes()
    assert len(classes) == 12
    assert sorted(len(c) for c in classes) == [
        1, 104, 117, 432, 432, 432, 432, 624, 702, 702, 702, 936]


def test_index_of_and_contains(s3):
    t = Perm((1, 0, 2))
    assert s3.element(s3.index_of(t)) == t
    assert t in s3
    assert Perm((1, 0, 2, 3)) not in s3
    with pytest.raises(UsageError):
        s3.index_of(Perm((1, 0, 2, 3)))
