"""Shared fixtures (catalog entries, small symmetric groups and PSL groups),
the whole and trivial subgroup helpers, the element list of a group, the
order of one element, conjugation of an index set, one subgroup per
conjugacy class, the least conjugator by a scan of the sorted group, and an
element product and inverse that share nothing with the library's key
arithmetic, to check it against, and malformed cycle texts with their
errors."""

from __future__ import annotations

import functools
import itertools
import os
import sys
from pathlib import Path

import pytest

from sunada import (Element, FiniteGroup, Mat2, Perm, SemiPair, Subgroup, catalog_entry,
                    enumerate_subgroups, generate_group, parse_cycles)

# Subprocesses started by the tests (``python -m sunada``) import the same
# package as the tests do, also from a checkout that is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def elements(group: FiniteGroup) -> list[Element]:
    """Every element of the group in index order, each built from its key."""
    return [group.element(i) for i in range(group.order)]


def order_of(group: FiniteGroup, i: int) -> int:
    """The least k >= 1 with i^k the identity, by repeated ``group.mul``."""
    k, power = 1, i
    while power != group.identity:
        power = group.mul(power, i)
        k += 1
    return k


def conjugate(group: FiniteGroup, members, g: int) -> frozenset[int]:
    """The set {g x g^-1 : x in members}, by ``group.mul`` and ``group.inv``."""
    return frozenset(group.mul(group.mul(g, x), group.inv(g)) for x in members)


def least_conjugator(group: FiniteGroup, u_members, v_members) -> int | None:
    """The first g in element order with g U g^-1 = V, or None: the group
    sorted by element, and U conjugated by each candidate in turn through
    ``group.mul`` and ``group.inv``."""
    target = frozenset(v_members)
    if len(target) != len(u_members):
        return None
    for g in sorted(range(group.order), key=group.element):
        g_inv = group.inv(g)
        if all(group.mul(group.mul(g, x), g_inv) in target for x in u_members):
            return g
    return None


def subgroup_classes(group: FiniteGroup, order: int) -> list[Subgroup]:
    """The least subgroup of each conjugacy class of subgroups of this order,
    in member order: ``enumerate_subgroups`` deduped under
    ``conjugation_orbit``."""
    classes, seen = [], set()
    for sub in enumerate_subgroups(group, order):
        if sub.member_set not in seen:
            seen.update(group.conjugation_orbit(sub.members)[0])
            classes.append(sub)
    return classes


def mat_oracle(m: int, x, y):
    """The product of two 2x2 matrices mod m, as entry rows, written out."""
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return (((a * p + b * r) % m, (a * q + b * s) % m),
            ((c * p + d * r) % m, (c * q + d * s) % m))


def pair_oracle(m: int, p1, p2):
    """The pair product (u, v)(u', v') = (u u', v + u v') mod m, written out."""
    (u1, v1), (u2, v2) = p1, p2
    return (u1 * u2) % m, (v1 + u1 * v2) % m


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


@functools.lru_cache(maxsize=4096)
def sympy_perm(p: Perm):
    """p as a sympy ``Permutation``, whose product p*q applies p first."""
    return pytest.importorskip("sympy.combinatorics").Permutation(list(p.images))


def compose(x: Element, y: Element) -> Element:
    """The product x y of two elements of one family, x acting first: sympy's
    permutation product, or the matrix or pair product written out."""
    if isinstance(x, Perm):
        return Perm((sympy_perm(x) * sympy_perm(y)).array_form)
    if isinstance(x, Mat2):
        return Mat2(x.modulus, mat_oracle(x.modulus, x.entries, y.entries))
    return SemiPair(x.modulus, *pair_oracle(x.modulus, (x.u, x.v), (y.u, y.v)))


def invert(x: Element) -> Element:
    """The inverse of x, by the same arithmetic as ``compose``."""
    if isinstance(x, Perm):
        return Perm((~sympy_perm(x)).array_form)
    m = x.modulus
    if isinstance(x, Mat2):
        (a, b), (c, d) = x.entries
        w = pow(a * d - b * c, -1, m)
        return Mat2(m, ((d * w, -b * w), (-c * w, a * w)))
    w = pow(x.u, -1, m)
    return SemiPair(m, w, -w * x.v)


@pytest.fixture(scope="session")
def genus2():
    return catalog_entry("genus2")


@pytest.fixture(scope="session")
def genus3():
    return catalog_entry("genus3")


@pytest.fixture(scope="session")
def orbifold_h():
    return catalog_entry("orbifold-h")


@pytest.fixture(scope="session")
def s3():
    return generate_group([Perm((1, 0, 2)), Perm((1, 2, 0))])


@pytest.fixture(scope="session")
def s4():
    return generate_group([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])


@pytest.fixture(scope="session")
def psl32():
    """PSL(3,2), order 168, on the 7 points of the Fano plane."""
    return generate_group([parse_cycles("(1,5)(2,6)", 7), parse_cycles("(0,3,1)(2,4,5)", 7)])


@pytest.fixture(scope="session")
def psl211():
    """PSL(2,11), order 660, on 11 points."""
    return generate_group([parse_cycles("(1,9)(2,3)(4,8)(5,6)", 11),
                           parse_cycles("(0,1,10)(2,4,9)(5,7,8)", 11)])


def projective_plane_action(matrix, p: int) -> Perm:
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


@pytest.fixture(scope="session")
def psl33():
    """PSL(3,3), order 5616, on the 13 points of P^2(F_3): a transvection and
    the coordinate cycle."""
    return generate_group([projective_plane_action([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3),
                           projective_plane_action([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)])


@pytest.fixture(scope="session")
def d257():
    """The dihedral group of degree 257, order 514: above degree 256 its
    elements are keyed by image tuples, not bytes."""
    n = 257
    return generate_group([parse_cycles("(" + ",".join(map(str, range(n))) + ")", n),
                           parse_cycles("".join(f"({i},{n - i})" for i in range(1, (n + 1) // 2)),
                                        n)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Echo the acceptance verdict lines after the run so they stay visible
    # under output capture.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
