"""Element arithmetic, cycle parsing, and group closure."""

from __future__ import annotations

import itertools
import json
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunada import (
    CycleParseError,
    FiniteGroup,
    Mat2,
    Perm,
    ResourceError,
    SearchConfig,
    SemiPair,
    UsageError,
    conjugacy_classes,
    covering_report,
    cycle_string,
    enumerate_subgroups,
    find_sunada_pairs,
    generate_group,
    is_sunada_triple,
    load_text,
    parse_cycles,
    schreier_graph,
    subgroup_generate,
)
from sunada.algebra import _arithmetic, _from_key, _key

from conftest import (compose, conjugate, elements, invert, mat_oracle, order_of, pair_oracle,
                      projective_plane_action, subgroup_classes, sympy_perm)

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


OVERLONG_POINT = "(0," + "9" * 5000 + ")"
MALFORMED_CYCLES = [  # (text, message, position) at degree 12
    ("(0,1", "expected ',' or ')'", 4),
    ("(0,0)", "point 0 repeated", 3),
    ("(0,99)", "point 99 out of range for degree 12", 3),
    ("(5)", "a cycle needs at least two points", 2),
    ("0,1", "expected '('", 0),
    ("(a,b)", "expected a point number", 1),
    ("(0,1)x", "expected '('", 5),
    ("(0,1)(1,2)", "point 1 repeated", 6),
    (OVERLONG_POINT, f"point {'9' * 5000} out of range for degree 12", 3),
    ("(0,)", "expected a point number", 3),
    ("(0,1))", "expected '('", 5),
    ("(0,\u0661\u0662)", "point 12 out of range for degree 12", 3),  # Arabic-Indic 12
    ("(0\u30001)", "expected ',' or ')'", 3),  # an ideographic space is no separator
    ("(0,1)\u3000(2", "expected ',' or ')'", 8),
]


@pytest.mark.parametrize("text, message, position", MALFORMED_CYCLES,
                         ids=["overlong-point" if text == OVERLONG_POINT else text
                              for text, _, _ in MALFORMED_CYCLES])
def test_parse_cycles_rejects_malformed_text(text, message, position):
    with pytest.raises(CycleParseError) as excinfo:
        parse_cycles(text, 12)
    assert excinfo.value.position == position
    assert str(excinfo.value) == f"{message} (at position {position})"


def test_regex_classes_are_the_str_predicates():
    """Cycle notation is matched with \\s and \\d, then read by int(): their
    characters must be exactly those of str.isspace and str.isdecimal."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\d", every)) == "".join(filter(str.isdecimal, every))


def test_parse_cycles_reads_leading_zeros_and_other_scripts():
    want = parse_cycles("(0,11)", 12)
    assert parse_cycles("(00,0011)", 12) == want
    assert parse_cycles("(0," + "0" * 5000 + "11)", 12) == want
    assert parse_cycles("(0,\u0661\u0661)", 12) == want  # Arabic-Indic digits
    with pytest.raises(CycleParseError) as excinfo:
        parse_cycles("(0,0012)", 12)
    assert excinfo.value.position == 3
    # A superscript is a digit to str.isdigit but not to int(): no point.
    with pytest.raises(CycleParseError):
        parse_cycles("(0,\u00b2)", 12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.permutations(tuple(range(n)))))
def test_parse_cycles_inverts_cycle_string(images):
    p = Perm(images)
    q = parse_cycles(cycle_string(p), p.degree)
    assert type(q) is Perm and type(q.images) is tuple
    assert q == p and hash(q) == hash(p)


def test_parse_cycles_rejects_nonpositive_degree():
    with pytest.raises(UsageError):
        parse_cycles("", 0)


def test_composition_applies_left_factor_first():
    a = parse_cycles("(0,1)", 3)
    b = parse_cycles("(1,2)", 3)
    group = generate_group([a, b])
    ia, ib = group.index_of(a), group.index_of(b)
    # point 0 goes to 1 under a, then to 2 under b, in the group and in sympy
    assert group.element(group.mul(ia, ib)).images[0] == compose(a, b).images[0] == 2
    assert group.element(group.mul(ib, ia)).images[0] == compose(b, a).images[0] == 1


def test_printed_generators_satisfy_abc_identity():
    a = parse_cycles(A12_A, 12)
    b = parse_cycles(A12_B, 12)
    c = parse_cycles(A12_C, 12)
    group = generate_group([a, b, c])
    ia, ib, ic = map(group.index_of, (a, b, c))
    assert group.inv(group.mul(ia, ib)) == ic
    assert group.mul(group.mul(ia, ib), ic) == group.identity
    orders = [order_of(group, i) for i in (ia, ib, ic)]
    assert orders == [sympy_perm(x).order() for x in (a, b, c)] == [3, 3, 6]


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
    group = generate_group(triple)
    mul, inv, e = group.mul, group.inv, group.identity
    a, b, c = map(group.index_of, triple)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, e) == mul(e, a) == a
    assert mul(a, inv(a)) == mul(inv(a), a) == e
    x, y, _ = triple
    assert group.element(mul(a, b)) == compose(x, y)
    assert group.element(inv(a)) == invert(x)
    assert group.element(e) == Perm(range(x.degree))


@settings(max_examples=60, deadline=None)
@given(perm_triples())
def test_perm_order_is_minimal_power(triple):
    a, _, _ = triple
    cyclic = generate_group([a])
    k = sympy_perm(a).order()
    assert cyclic.order == k
    i, acc, powers = cyclic.index_of(a), cyclic.identity, []
    for _ in range(k):
        acc = cyclic.mul(acc, i)
        powers.append(acc)
    assert powers[-1] == cyclic.identity
    assert cyclic.identity not in powers[:-1]


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
    group = generate_group([a, b, c])
    assert group.element(group.mul(group.index_of(a), group.index_of(b))) == c == compose(a, b)
    assert [order_of(group, group.index_of(x)) for x in (a, b, c)] == [4, 4, 6]


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
    group = generate_group([Mat2(m, x), Mat2(m, y)])
    i, j = group.index_of(Mat2(m, x)), group.index_of(Mat2(m, y))
    assert group.element(group.mul(i, j)).entries == mat_oracle(m, x, y)
    assert mat_oracle(m, x, group.element(group.inv(i)).entries) == ((1, 0), (0, 1))
    assert group.element(group.identity) == Mat2(m, ((1, 0), (0, 1)))


# ------------------------------------------------------------ semidirect pairs

H_A = (3, 2)
H_B = (7, 1)
H_C = (7, 2)


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
    # Every pair mod 9 (orbifold-h's group is every pair mod 8): 2 generates
    # the units, and (1, 1) the translations.
    group = generate_group([SemiPair(9, 2, 0), SemiPair(9, 1, 1)])
    every = elements(group)
    assert sorted((p.u, p.v) for p in every) == [
        (u, v) for u in (1, 2, 4, 5, 7, 8) for v in range(9)]
    for (i, x), (j, y) in itertools.product(enumerate(every), repeat=2):
        got = group.element(group.mul(i, j))
        assert (got.u, got.v) == pair_oracle(9, (x.u, x.v), (y.u, y.v))


def test_semipair_inverse_matches_exhaustive_scan(orbifold_h):
    # the unique two-sided inverse of (3, 7) found by scanning all 32 elements
    target = [
        p
        for p in _h_elements()
        if pair_oracle(8, p, (3, 7)) == (1, 0) and pair_oracle(8, (3, 7), p) == (1, 0)
    ]
    assert target == [(3, 3)]
    group = orbifold_h.group
    inv = group.element(group.inv(group.index_of(SemiPair(8, 3, 7))))
    assert (inv.u, inv.v) == (3, 3)


def test_semipair_generator_orders(orbifold_h):
    a, b, c = SemiPair(8, *H_A), SemiPair(8, *H_B), SemiPair(8, *H_C)
    abc = compose(compose(a, b), c)
    group = orbifold_h.group
    assert [order_of(group, group.index_of(x)) for x in (a, b, c, abc)] == [2, 2, 2, 4]


@st.composite
def same_family_pairs(draw):
    family = draw(st.sampled_from((Perm, Mat2, SemiPair)))
    if family is Perm:
        # Bytes keys up to degree 256, image tuples above.
        degree = draw(st.one_of(st.integers(1, 9), st.integers(257, 300)))
        imgs = st.permutations(tuple(range(degree)))
        return Perm(tuple(draw(imgs))), Perm(tuple(draw(imgs)))
    # Bytes keys up to 256 points, so m <= 16 for matrices and m <= 256 for
    # pairs; entry rows or (u, v) above.
    if family is SemiPair:
        m = draw(st.one_of(st.integers(2, 12), st.integers(257, 300)))
    else:
        m = draw(st.one_of(st.integers(2, 16), st.integers(17, 23)))
    residue = st.integers(0, m - 1)
    if family is SemiPair:
        unit = residue.filter(lambda u: math.gcd(u, m) == 1)
        return SemiPair(m, draw(unit), draw(residue)), SemiPair(m, draw(unit), draw(residue))
    entries = st.tuples(st.tuples(residue, residue), st.tuples(residue, residue)).filter(
        lambda e: math.gcd(e[0][0] * e[1][1] - e[0][1] * e[1][0], m) == 1)
    return Mat2(m, draw(entries)), Mat2(m, draw(entries))


def _revalidated(e):
    if isinstance(e, Perm):
        return Perm(e.images)
    if isinstance(e, Mat2):
        return Mat2(e.modulus, e.entries)
    return SemiPair(e.modulus, e.u, e.v)


@settings(max_examples=200, deadline=None)
@given(same_family_pairs())
def test_trusted_product_matches_validated_compose(pair):
    """The key product, and the unvalidated element a group builds from it,
    against ``compose`` and the validating constructor."""
    x, y = pair
    arithmetic = _arithmetic(x)
    key = arithmetic.product(_key(x), _key(y))
    assert arithmetic.right(_key(y))(_key(x)) == key == _key(compose(x, y))
    p = _from_key(x, key)
    rebuilt = _revalidated(p)
    assert type(p) is type(x)
    assert rebuilt == p == compose(x, y) and hash(rebuilt) == hash(p)


@settings(max_examples=200, deadline=None)
@given(same_family_pairs())
def test_trusted_inverse_is_a_valid_two_sided_inverse(pair):
    x, _ = pair
    arithmetic = _arithmetic(x)
    w = _from_key(x, arithmetic.inverse(_key(x)))
    assert type(w) is type(x)
    assert _revalidated(w) == w == invert(x) and hash(_revalidated(w)) == hash(w)
    assert compose(x, w) == compose(w, x) == _from_key(x, arithmetic.identity)


def test_trusted_product_stays_in_the_enumeration(genus2):
    group = genus2.group
    every = range(group.order)
    # mul raises KeyError for a product outside the index
    assert {group.mul(i, j) for i in every for j in every} == set(every)


@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h", "psl32"])
def test_mul_matches_compose_exhaustively(name, request):
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    every = elements(group)
    for i, x in enumerate(every):
        for j, y in enumerate(every):
            assert group.mul(i, j) == group.index_of(compose(x, y))


# genus2 is keyed by bytes, genus3 by Mat2 entries and orbifold-h by SemiPair
# (u, v); the degree-257 boundary test covers tuple keys.
@pytest.mark.parametrize("name", ["genus2", "genus3", "orbifold_h"])
def test_inverse_table_matches_element_inverse(name, request):
    group = request.getfixturevalue(name).group
    for i, x in enumerate(elements(group)):
        assert group.element(group.inv(i)) == invert(x)
        assert group.mul(i, group.inv(i)) == group.mul(group.inv(i), i) == group.identity


# Groups keyed above 256 points: entry rows mod 17, and (u, v) mod 257.
_TUPLE_KEYED = {"mat17": lambda: generate_group([Mat2(17, ((1, 1), (0, 1)))]),
                "pair257": lambda: generate_group([SemiPair(257, 1, 1)])}


# Each key below is also the key of a member of the group it is tried in:
# the same bytes from an action on as many points (a pair mod 8 and a
# matrix mod 4 act on 8 and 16 points), or the same rows or (u, v).
@pytest.mark.parametrize("name, foreign", [
    ("orbifold_h", Perm(range(8))),  # the identity
    ("orbifold_h", Perm((3, 6, 1, 4, 7, 2, 5, 0))),  # (3, 7): t -> 3 (t - 7)
    ("genus3", Perm(range(16))),
    ("genus3", SemiPair(16, 13, 0)),  # t -> 5 t, which is [[1,0],[1,1]]
    ("mat17", Mat2(19, ((1, 0), (0, 1)))),
    ("mat17", Mat2(23, ((1, 1), (0, 1)))),
    ("pair257", SemiPair(300, 1, 5)),
])
def test_foreign_element_with_a_member_key_is_not_in_the_group(name, foreign, request):
    group = _TUPLE_KEYED[name]() if name in _TUPLE_KEYED else request.getfixturevalue(name).group
    assert _key(foreign) in group._key_space()[1]
    with pytest.raises(UsageError, match="not in the group"):
        group.index_of(foreign)


@pytest.mark.parametrize("elements", [
    [Perm((0, 1)), Mat2(4, ((1, 0), (0, 1)))],
    [Perm((0, 1, 2)), Perm((0, 1, 2, 3))],
    [SemiPair(8, 1, 0), SemiPair(4, 1, 0)],
])
def test_finite_group_rejects_mixed_families(elements):
    first, second = elements
    message = ("cannot mix" if type(first) is not type(second)
               else "degree mismatch" if isinstance(first, Perm) else "modulus mismatch")
    with pytest.raises(UsageError, match=message):
        generate_group(elements)


# A permutation of degree <= 256 is multiplied as bytes, a longer one as a
# tuple; the cyclic group of one n-cycle exercises both sides of the boundary.
# Its element with 0 -> k is the k-th power of the cycle, of order n / gcd(k, n),
# and fixed by k, so the product of the powers j and k is the power j + k.
# At degree 256 every pair is multiplied.  A tuple product at degree 257 costs
# about 25 us, so there every element is multiplied on both sides by 9 spread
# elements rather than by all of them.
@pytest.mark.parametrize("degree", [256, 257])
def test_permutation_products_agree_at_the_byte_boundary(degree):
    generated = generate_group([Perm(tuple(range(1, degree)) + (0,))])
    assert generated.order == degree
    every = range(degree)
    sample = every if degree == 256 else range(0, degree, 32)
    for j in sample:
        y = generated.element(j)
        assert order_of(generated, j) == degree // math.gcd(y.images[0], degree)
    pairs = {p for i in every for j in sample for p in ((i, j), (j, i))}
    for i, x in enumerate(elements(generated)):
        assert generated.element(generated.inv(i)) == invert(x)
        assert generated.mul(i, generated.inv(i)) == generated.identity
        assert generated.index_of(x) == generated.index_of(Perm(x.images)) == i
    power = [x.images[0] for x in elements(generated)]
    for i, j in pairs:
        assert power[generated.mul(i, j)] == (power[i] + power[j]) % degree


# ------------------------------------------------------------- group closure


def test_generate_group_symmetric_three(s3):
    assert s3.order == 6
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_generate_group_is_deterministic():
    gens = [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]
    g1 = generate_group(gens)
    g2 = generate_group(list(reversed(gens)))
    assert elements(g1) == elements(g2)


def test_generate_group_respects_element_cap():
    seven_cycle = Perm((1, 2, 3, 4, 5, 6, 0))
    with pytest.raises(ResourceError):
        generate_group([seven_cycle], max_elements=5)
    # degree 32 halves the cap: S_32 stops at 50 elements, not 100
    wide = [Perm((1, 0) + tuple(range(2, 32))), Perm(tuple(range(1, 32)) + (0,))]
    with pytest.raises(ResourceError, match="cap of 50 at degree 32"):
        generate_group(wide, max_elements=100)
    assert generate_group([Perm(tuple(range(1, 16)) + (0,))], max_elements=16).order == 16
    # a modulus above 64 bits scales the cap by 64 / bits; one of 64 bits does not
    assert generate_group([SemiPair(2**64 - 1, 2**64 - 2, 0)], max_elements=2).order == 2
    with pytest.raises(ResourceError, match="cap of 1 at a 65-bit modulus"):
        generate_group([SemiPair(2**64 + 1, 2**64, 0)], max_elements=2)


def test_generate_group_rejects_empty_generator_list():
    with pytest.raises(UsageError):
        generate_group([])


def test_finite_group_closes_its_own_generators():
    """The class takes generators only, so no table can give it a wrong
    identity: one transposition closes to a group of order 2."""
    transposition = Perm((1, 0))
    group = FiniteGroup([transposition])
    assert group.order == 2
    assert group.element(group.identity) == Perm((0, 1))
    assert group.element(group.generators[0]) == transposition
    assert group._keys == generate_group([transposition])._keys
    with pytest.raises(UsageError):
        FiniteGroup(5)


# ----------------------------------------------------------------- group keys


def _dihedral(n: int) -> list[Perm]:
    return [Perm(tuple(range(1, n)) + (0,)), Perm(tuple(-i % n for i in range(n)))]


def _reference_closure(gens) -> list:
    """generate_group's enumeration, closed over the ``compose`` oracle."""
    seeds = sorted(set(gens))
    elements, seen = list(seeds), set(seeds)
    for x in elements:
        for g in seeds:
            p = compose(x, g)
            if p not in seen:
                seen.add(p)
                elements.append(p)
    return elements


# Bytes permutation keys, tuple keys from degree 257, matrices and pairs.
@pytest.fixture(params=["psl32", "dihedral256", "dihedral257", "genus3", "orbifold_h"])
def family_gens(request):
    name = request.param
    if name.startswith("dihedral"):
        return _dihedral(int(name[len("dihedral"):]))
    fixture = request.getfixturevalue(name)
    group = getattr(fixture, "group", fixture)
    return [group.element(i) for i in group.generators]


def test_generate_group_matches_a_closure_over_compose(family_gens):
    reference = _reference_closure(family_gens)
    group = generate_group(family_gens)
    assert elements(group) == reference
    assert group.generators == tuple(range(len(set(family_gens))))


def test_elements_are_built_from_keys_on_demand(family_gens):
    group = generate_group(family_gens)
    for i in range(group.order):
        e = group.element(i)
        assert group.index_of(e) == i
        assert _key(e) == group._keys[i]


# A permutation's key is its images, so it sorts as the element; a matrix's
# or pair's is the bytes of its action, which does not.
@pytest.mark.parametrize("family_gens", ["psl32", "dihedral256", "dihedral257"], indirect=True)
def test_keys_sort_in_element_key_order(family_gens):
    group = generate_group(family_gens)
    by_key = sorted(range(group.order), key=group._keys.__getitem__)
    assert by_key == sorted(range(group.order), key=group.element)


# Generator lists of four shapes; the group has one generator, and one
# conjugation map, per distinct element of the list, in sorted order.
GENERATOR_LISTS = {
    "three": lambda a, b: [a, b, compose(a, b)],
    "with-identity": lambda a, b: [a, compose(a, invert(a)), b],
    "duplicate": lambda a, b: [a, b, a],
    "unsorted": lambda a, b: sorted([a, b], reverse=True),
}


@pytest.mark.parametrize("shape", sorted(GENERATOR_LISTS))
def test_conjugation_maps_match_element_arithmetic(family_gens, shape):
    gens = GENERATOR_LISTS[shape](*family_gens[:2])
    group = generate_group(gens)
    maps = group._conjugation_maps()
    assert len(maps) == len(group.generators) == len(set(gens))
    every = elements(group)
    for g, row in zip(group.generators, maps):
        g_element = group.element(g)
        g_inverse = invert(g_element)
        assert [group.element(y) for y in row] == [
            compose(compose(g_inverse, x), g_element) for x in every]
    assert group._conjugation_maps() is maps and group._cayley is None


def test_pipeline_builds_no_element_tuple(psl211):
    def members(gens):
        sub = subgroup_generate(psl211, [psl211.index_of(parse_cycles(t, 11)) for t in gens])
        return [cycle_string(psl211.element(i)) for i in sub.members]
    document = {
        "kind": "permutation", "degree": 11,
        "generators": {"a": "(1,9)(2,3)(4,8)(5,6)", "b": "(0,1,10)(2,4,9)(5,7,8)"},
        "subgroups": {
            "U": {"elements": members(["(1,9)(2,3)(4,8)(5,6)", "(1,7,4)(3,8,6)(5,10,9)"])},
            "V": {"elements": members(["(1,9)(2,3)(4,8)(5,6)", "(0,4,6)(1,2,3)(7,9,10)"])},
        },
        "polygon": {"edge_pairs": 2, "cycles": [
            {"label": "a", "word": "a"}, {"label": "b", "word": "b"},
            {"label": "c", "word": "b^-1 a^-1"}]},
    }
    spec = load_text(json.dumps(document))
    group, u, v = spec.group, spec.subgroups["U"], spec.subgroups["V"]
    assert is_sunada_triple(group, u, v).is_sunada_triple
    assert covering_report(group, u, spec.polygon).index == 11
    labels = [(n, spec.named_elements[n]) for n in spec.generator_names]
    assert schreier_graph(group, u, labels).vertex_count == 11


def test_group_table_matches_element_arithmetic(orbifold_h):
    g = orbifold_h.group
    assert g.order == 32
    for i in range(g.order):
        for j in range(g.order):
            prod = g.element(g.mul(i, j))
            ei, ej = g.element(i), g.element(j)
            assert (prod.u, prod.v) == pair_oracle(8, (ei.u, ei.v), (ej.u, ej.v))


def test_group_inverse_power_conjugate(s4):
    for i in range(s4.order):
        assert s4.mul(i, s4.inv(i)) == s4.identity
    g, x = 5, 7
    (y,) = conjugate(s4, [x], g)
    assert s4.element(y) == compose(
        compose(s4.element(g), s4.element(x)), invert(s4.element(g))
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
            assert conjugate(s4, members, g) == members


def test_conjugation_orbit_matches_conjugating_by_every_element(s4):
    """One index set's orbit, subgroup or not, against its conjugates by
    every element of S4, and its arcs against the generators' conjugates."""
    for members in ({1, 2}, {s4.identity, 5}, set(range(s4.order)), set()):
        arcs = []
        orbit = s4.conjugation_orbit(members, arcs)
        assert orbit == s4.conjugation_orbit(sorted(members))
        assert orbit[0] == frozenset(members)
        assert len(set(orbit)) == len(orbit)
        assert set(orbit) == {conjugate(s4, members, g) for g in range(s4.order)}
        k = len(s4.generators)
        assert len(arcs) == len(orbit) * k
        for arc, j in enumerate(arcs):
            item, g = divmod(arc, k)  # generator g is element index g; the map is x -> g^-1 x g
            assert orbit[j] == conjugate(s4, orbit[item], s4.inv(g))


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


def _assert_classes_match_sympy(group, perms):
    """Each class of ``group``, as a set of image tuples, is one class of the
    sympy group on the same generators, and every sympy class is one of them."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p.images)) for p in perms])
    assert group.order == oracle.order()
    expected = {frozenset(tuple(q.array_form) for q in c) for c in oracle.conjugacy_classes()}
    got = [frozenset(group.element(i).images for i in c) for c in group.conjugacy_classes()]
    assert len(got) == len(expected) and set(got) == expected


@pytest.mark.parametrize("name", sorted(PSL_GENERATORS))
def test_conjugacy_classes_match_sympy(name):
    degree, cycles, sizes = PSL_GENERATORS[name]
    perms = [parse_cycles(text, degree) for text in cycles]
    group = generate_group(perms)
    assert sorted(len(c) for c in group.conjugacy_classes()) == sizes
    _assert_classes_match_sympy(group, perms)


def test_dihedral_257_classes_match_sympy():
    """D_257, keyed by image tuples: the identity, 128 classes of rotation
    pairs and one of the 257 reflections."""
    perms = _dihedral(257)
    group = generate_group(perms)
    assert len(group.conjugacy_classes()) == (257 + 3) // 2
    _assert_classes_match_sympy(group, perms)


# Subgroups of PSL(3,2) per order: (all subgroups, conjugacy classes).  Order
# 4 is C4 and two classes of V4; orders 12 and 24 are two classes each of A4
# and S4, the stabilisers of a point and of a line of the Fano plane.
PSL32_SUBGROUPS = {1: (1, 1), 2: (21, 1), 3: (28, 1), 4: (35, 3), 6: (28, 1), 7: (8, 1),
                   8: (21, 1), 12: (14, 2), 14: (0, 0), 21: (8, 1), 24: (14, 2)}


def test_psl32_subgroup_lattice():
    degree, cycles, _ = PSL_GENERATORS["PSL(3,2)"]
    group = generate_group([parse_cycles(text, degree) for text in cycles])
    for order, (count, classes) in PSL32_SUBGROUPS.items():
        subgroups = enumerate_subgroups(group, order)
        assert len(subgroups) == count, order
        assert all(sub.order == order for sub in subgroups)
        assert len(subgroup_classes(group, order)) == classes, order
    assert len(find_sunada_pairs(group, SearchConfig(order=24))) == 2


def test_psl33_conjugacy_classes():
    transvection = projective_plane_action([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3)
    cycle = projective_plane_action([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)
    assert transvection.degree == 13
    group = generate_group([transvection, cycle])
    assert group.order == 5616
    classes = group.conjugacy_classes()
    assert len(classes) == 12
    assert sorted(len(c) for c in classes) == [
        1, 104, 117, 432, 432, 432, 432, 624, 702, 702, 702, 936]
    _assert_classes_match_sympy(group, [transvection, cycle])


def test_psl33_sunada_pairs_of_order_432(psl33):
    """The two classes of point and line stabilisers of PSL(3,3), index 13."""
    group = psl33
    pairs = find_sunada_pairs(group, SearchConfig(order=432))
    assert len(pairs) == 2
    for u, v, report in pairs:
        assert report.is_sunada_triple
        assert is_sunada_triple(group, u, v).is_sunada_triple
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for sub in {sub for u, v, _ in pairs for sub in (u, v)}:
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(group.element(i).images)) for i in sub.members])
        assert oracle.order() == sub.order == 432


def test_element_refuses_an_index_outside_the_group(genus2):
    """A tuple index would read -1 as the last element."""
    group = genus2.group
    for i in (-1, group.order):
        with pytest.raises(UsageError, match=f"element index {i} out of range"):
            group.element(i)


@pytest.mark.parametrize("members, arcs, message", [
    ([-1], None, "element index -1 out of range"),  # a tuple index would read element 95
    ([999], None, "element index 999 out of range"),
    (5, None, "each value must be an integer"),
    ([[-1]], None, "each value must be an integer"),  # one set, no longer a tuple of sets
    ([0, 1], (), "expected a list"),
], ids=["negative", "too-large", "not-iterable", "nested", "arcs-tuple"])
def test_conjugation_orbit_refuses_what_is_no_index_set(genus2, members, arcs, message):
    """The members, and the arcs list when given, are checked once, before
    the walk, whose images index a tuple."""
    with pytest.raises(UsageError, match=message):
        genus2.group.conjugation_orbit(members, arcs)


def test_index_of_and_contains(s3):
    t = Perm((1, 0, 2))
    assert s3.element(s3.index_of(t)) == t
    with pytest.raises(UsageError):
        s3.index_of(Perm((1, 0, 2, 3)))
