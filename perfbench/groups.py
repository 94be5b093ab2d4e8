"""Seeded PSL group documents and the results every workload checks against.

Both documents are permutation documents with generators ``a`` and ``b`` and
the polygon ``edge_pairs: 2`` with cycles a, b and c = b^-1 a^-1.  The seed
relabels the permutation points; every checked result is invariant under
relabeling.  The documents are built and self-checked here with plain tuple
arithmetic, independently of the package under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

CATALOG_ENTRIES = ("genus2", "genus3", "orbifold-h")


@dataclass(frozen=True)
class Expected:
    """Results of one group document, as the workloads check them."""

    group_order: int
    classes: int
    subgroup_order: int
    chi_orb: Fraction
    genus: int
    cone_points: frozenset  # of (cycle label, cone order, multiplicity)
    smooth: bool

    @property
    def index(self) -> int:
        return self.group_order // self.subgroup_order


@dataclass(frozen=True)
class PslSpec:
    degree: int
    a: str
    b: str
    u_gens: tuple[str, str]
    v_gens: tuple[str, str]
    expected: Expected


PSL = {
    # Perlis' minimal index-7 pair: point and line stabilisers in PSL(3,2).
    "PSL(3,2)": PslSpec(
        degree=7, a="(1,5)(2,6)", b="(0,3,1)(2,4,5)",
        u_gens=("(1,5)(2,6)", "(1,4,6)(2,3,5)"),
        v_gens=("(0,2)(4,6)", "(0,2,1)(3,5,6)"),
        expected=Expected(168, 6, 24, Fraction(-1, 6), 0,
                          frozenset({("a", 2, 3), ("b", 3, 1)}), False)),
    # The two classes of A5 in PSL(2,11), index 11.
    "PSL(2,11)": PslSpec(
        degree=11, a="(1,9)(2,3)(4,8)(5,6)", b="(0,1,10)(2,4,9)(5,7,8)",
        u_gens=("(1,9)(2,3)(4,8)(5,6)", "(1,7,4)(3,8,6)(5,10,9)"),
        v_gens=("(1,9)(2,3)(4,8)(5,6)", "(0,4,6)(1,2,3)(7,9,10)"),
        expected=Expected(660, 8, 60, Fraction(-5, 6), 0,
                          frozenset({("a", 2, 3), ("b", 3, 2)}), False)),
}

# Catalog entries: (subgroup names, search arguments, expected pair count, expected results).
CATALOG = {
    "genus2": (("U", "V"), ["--order", "8", "--smooth"], 4,
               Expected(96, 12, 8, Fraction(-2), 2, frozenset(), True)),
    "genus3": (("U1", "U2"), ["--order", "8", "--smooth"], 3,
               Expected(96, 14, 8, Fraction(-4), 3, frozenset(), True)),
    "orbifold-h": (("U1", "U2"), ["--order", "4"], 3,
                   Expected(32, 11, 4, Fraction(-2), 1,
                            frozenset({("a", 2, 2), ("c", 2, 2)}), False)),
}


class DocumentError(RuntimeError):
    """A generated document failed its own self-check."""


def _cycles(text: str) -> list[list[int]]:
    return [[int(p) for p in body.split(",")] for body in re.findall(r"\(([^)]*)\)", text)]


def _images(text: str, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for cyc in _cycles(text):
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def _cycle_text(images: tuple[int, ...]) -> str:
    parts, seen = [], set()
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, p = [], start
        while p not in seen:
            seen.add(p)
            cyc.append(p)
            p = images[p]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts)


def _closure(gens: list[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    identity = tuple(range(degree))
    seen, work = {identity}, [identity]
    for x in work:
        for g in gens:
            p = tuple(g[i] for i in x)
            if p not in seen:
                seen.add(p)
                work.append(p)
    return work


def _class_count(elements: list[tuple[int, ...]], gens: list[tuple[int, ...]]) -> int:
    """Orbits of conjugation by the generators, which are the conjugacy classes."""
    inverses = []
    for g in gens:
        inv = [0] * len(g)
        for i, img in enumerate(g):
            inv[img] = i
        inverses.append(tuple(inv))
    unseen, count = set(elements), 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            x = stack.pop()
            for g, ginv in zip(gens, inverses):
                y = tuple(g[x[ginv[i]]] for i in range(len(x)))
                if y in unseen:
                    unseen.remove(y)
                    stack.append(y)
    return count


def psl_document(name: str, seed: int) -> dict:
    """The group document of one PSL rung, points relabeled by the seed.

    Raises DocumentError unless the group order, the class count and both
    subgroup orders come out as expected.
    """
    spec = PSL[name]
    n = spec.degree
    sigma = list(range(n))
    random.Random(f"{name}/{seed}").shuffle(sigma)

    def relabel(text: str) -> tuple[int, ...]:
        images = _images(text, n)
        out = [0] * n
        for i in range(n):
            out[sigma[i]] = sigma[images[i]]
        return tuple(out)

    a, b = relabel(spec.a), relabel(spec.b)
    group = _closure([a, b], n)
    subgroups = {key: _closure([relabel(t) for t in gens], n)
                 for key, gens in (("U", spec.u_gens), ("V", spec.v_gens))}
    exp = spec.expected
    found = (len(group), _class_count(group, [a, b]),
             len(subgroups["U"]), len(subgroups["V"]))
    want = (exp.group_order, exp.classes, exp.subgroup_order, exp.subgroup_order)
    if found != want:
        raise DocumentError(f"{name} seed {seed}: (order, classes, |U|, |V|) = {found}, expected {want}")
    return {
        "kind": "permutation",
        "degree": n,
        "generators": {"a": _cycle_text(a), "b": _cycle_text(b)},
        "subgroups": {key: {"elements": sorted(_cycle_text(x) for x in members)}
                      for key, members in subgroups.items()},
        "polygon": {"edge_pairs": 2, "cycles": [
            {"label": "a", "word": "a"},
            {"label": "b", "word": "b"},
            {"label": "c", "word": "b^-1 a^-1"},
        ]},
    }
