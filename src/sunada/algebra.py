"""Concrete group element families and a fully enumerated finite group engine.

Three element families are supported: permutations of {0, ..., n-1}, invertible
2x2 matrices over Z/m, and unit/residue pairs (u, v) with u a unit mod m.
Elements are immutable and compare structurally.  Products read left to right:
``compose(x, y)`` applies x first for permutations, is the matrix product
``x y`` for matrices, and is ``(u, v)(u', v') = (u u', v + u v')`` for pairs.

The element constructors validate their input; a product does not need to.
``compose`` checks that its factors share one family and degree or modulus,
then hands them to ``_product``, the one place a product is computed, which
builds the result without re-validating it: the product of two valid elements
of one family is always valid.  ``FiniteGroup`` checks the family of its whole
enumeration once, at construction, so its products skip the per-call check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "UsageError",
    "CycleParseError",
    "ResourceError",
    "Perm",
    "Mat2",
    "SemiPair",
    "Element",
    "compose",
    "inverse",
    "identity_like",
    "element_order",
    "element_key",
    "parse_cycles",
    "cycle_string",
    "FiniteGroup",
    "generate_group",
    "conjugacy_classes",
    "DEFAULT_ELEMENT_CAP",
]

DEFAULT_ELEMENT_CAP = 10**6


class UsageError(ValueError):
    """Operands do not belong together (wrong family, parameters, or parent)."""


class CycleParseError(ValueError):
    """Malformed cycle notation; ``position`` is the 0-based offset in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceError(RuntimeError):
    """A closure or enumeration exceeded its configured cap."""


@dataclass(frozen=True)
class Perm:
    """Permutation of {0, ..., degree-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise UsageError(f"images {images!r} do not form a permutation of 0..{len(images) - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return cycle_string(self)


@dataclass(frozen=True)
class Mat2:
    """Invertible 2x2 matrix over Z/modulus, entries stored row-major and reduced."""

    modulus: int
    entries: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        m = int(self.modulus)
        if m < 2:
            raise UsageError(f"matrix modulus must be >= 2, got {m}")
        (a, b), (c, d) = self.entries
        ent = ((int(a) % m, int(b) % m), (int(c) % m, int(d) % m))
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "entries", ent)
        det = (ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]) % m
        if math.gcd(det, m) != 1:
            raise UsageError(f"determinant {det} is not a unit mod {m}")

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a},{b}],[{c},{d}]]"


@dataclass(frozen=True)
class SemiPair:
    """Pair (u, v) with u a unit mod modulus, v any residue.

    The product is (u, v)(u', v') = (u u', v + u v'), the semidirect product of
    the unit group acting on the additive group by multiplication.
    """

    modulus: int
    u: int
    v: int

    def __post_init__(self):
        m = int(self.modulus)
        if m < 2:
            raise UsageError(f"pair modulus must be >= 2, got {m}")
        u = int(self.u) % m
        v = int(self.v) % m
        if math.gcd(u, m) != 1:
            raise UsageError(f"first component {u} is not a unit mod {m}")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


Element = Union[Perm, Mat2, SemiPair]


def _require_same_family(e1: Element, e2: Element) -> None:
    if type(e1) is not type(e2):
        raise UsageError(f"cannot mix {type(e1).__name__} with {type(e2).__name__}")
    if isinstance(e1, Perm):
        if e1.degree != e2.degree:
            raise UsageError(f"degree mismatch: {e1.degree} vs {e2.degree}")
    elif e1.modulus != e2.modulus:
        raise UsageError(f"modulus mismatch: {e1.modulus} vs {e2.modulus}")


def compose(e1: Element, e2: Element) -> Element:
    """Group product of two elements of the same family; e1 acts first for perms."""
    _require_same_family(e1, e2)
    return _product(e1, e2)


_new = object.__new__
_set = object.__setattr__


def _product(e1: Element, e2: Element) -> Element:
    """``compose`` for factors already known to share one family and degree or
    modulus.  The result is built without ``__post_init__``: it is valid
    because both factors are."""
    if isinstance(e1, Perm):
        p = _new(Perm)
        _set(p, "images", tuple(map(e2.images.__getitem__, e1.images)))
        return p
    if isinstance(e1, Mat2):
        m = e1.modulus
        (a, b), (c, d) = e1.entries
        (q, r), (s, t) = e2.entries
        p = _new(Mat2)
        _set(p, "modulus", m)
        _set(p, "entries", (((a * q + b * s) % m, (a * r + b * t) % m),
                            ((c * q + d * s) % m, (c * r + d * t) % m)))
        return p
    if isinstance(e1, SemiPair):
        m = e1.modulus
        p = _new(SemiPair)
        _set(p, "modulus", m)
        _set(p, "u", (e1.u * e2.u) % m)
        _set(p, "v", (e1.v + e1.u * e2.v) % m)
        return p
    raise UsageError(f"unsupported element type {type(e1).__name__}")


def inverse(e: Element) -> Element:
    """Group inverse, computed structurally."""
    if isinstance(e, Perm):
        inv = [0] * e.degree
        for i, img in enumerate(e.images):
            inv[img] = i
        return Perm(tuple(inv))
    if isinstance(e, Mat2):
        m = e.modulus
        (a, b), (c, d) = e.entries
        det_inv = pow((a * d - b * c) % m, -1, m)
        return Mat2(m, (((d * det_inv) % m, (-b * det_inv) % m),
                        (((-c) * det_inv) % m, (a * det_inv) % m)))
    if isinstance(e, SemiPair):
        m = e.modulus
        w = pow(e.u, -1, m)
        return SemiPair(m, w, (-w * e.v) % m)
    raise UsageError(f"unsupported element type {type(e).__name__}")


def identity_like(e: Element) -> Element:
    """Identity element of the same family and parameters as ``e``."""
    if isinstance(e, Perm):
        return Perm(tuple(range(e.degree)))
    if isinstance(e, Mat2):
        return Mat2(e.modulus, ((1, 0), (0, 1)))
    if isinstance(e, SemiPair):
        return SemiPair(e.modulus, 1, 0)
    raise UsageError(f"unsupported element type {type(e).__name__}")


def element_order(e: Element) -> int:
    """Smallest k >= 1 with e^k = identity."""
    ident = identity_like(e)
    k = 1
    x = e
    while x != ident:
        x = _product(x, e)
        k += 1
    return k


def element_key(e: Element):
    """Total order on one element family, used for canonical generator sorting."""
    if isinstance(e, Perm):
        return e.images
    if isinstance(e, Mat2):
        return e.entries
    if isinstance(e, SemiPair):
        return (e.u, e.v)
    raise UsageError(f"unsupported element type {type(e).__name__}")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint cycle notation like "(0,7,11)(1,5,6)" into a Perm.

    Points are 0-based and must be below ``degree``; points not listed stay
    fixed; whitespace is ignored; the empty string is the identity.  Raises
    CycleParseError (carrying a text position) for malformed input, repeated
    points, or out-of-range points.
    """
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    images = list(range(degree))
    seen: set[int] = set()
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(0)
    while pos < n:
        if text[pos] != "(":
            raise CycleParseError("expected '('", pos)
        pos += 1
        cycle: list[int] = []
        while True:
            point_pos = skip_ws(pos)
            pos = point_pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == point_pos:
                raise CycleParseError("expected a point number", point_pos)
            point = int(text[point_pos:pos])
            if point >= degree:
                raise CycleParseError(f"point {point} out of range for degree {degree}", point_pos)
            if point in seen:
                raise CycleParseError(f"point {point} repeated", point_pos)
            seen.add(point)
            cycle.append(point)
            pos = skip_ws(pos)
            if pos < n and text[pos] == ",":
                pos += 1
                continue
            if pos < n and text[pos] == ")":
                pos += 1
                break
            raise CycleParseError("expected ',' or ')'", pos)
        if len(cycle) < 2:
            raise CycleParseError("a cycle needs at least two points", pos - 1)
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
        pos = skip_ws(pos)
    return Perm(tuple(images))


def cycle_string(perm: Perm) -> str:
    """Disjoint cycle notation, least point first in each cycle, cycles ordered
    by least point, fixed points omitted.  The identity renders as ""."""
    parts: list[str] = []
    seen: set[int] = set()
    for start in range(perm.degree):
        if start in seen or perm.images[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm.images[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm.images[nxt]
        parts.append("(" + ",".join(str(p) for p in cyc) + ")")
    return "".join(parts)


class FiniteGroup:
    """A finite group enumerated as a tuple of elements of one family.

    The element order is the canonical closure order produced by
    ``generate_group`` and every downstream ordering (conjugacy classes,
    cosets, graph vertices) derives from it.  ``generators`` must generate
    the whole group: conjugation orbits are closed under the generators only.
    ``generate_group`` guarantees this.  The constructor checks once that
    all elements share one family and degree or modulus, so ``mul`` takes the
    trusted product of the two elements, without a family check, and looks
    the result up in the element index; products are never cached.
    Inverses, one conjugation map per generator, and the class partition are
    cached on first use; caches are write-once, so sharing an instance across
    threads is safe.
    """

    def __init__(self, elements: Sequence[Element], generators: Sequence[int]):
        self.elements: tuple[Element, ...] = tuple(elements)
        if not self.elements:
            raise UsageError("a group needs at least one element")
        first = self.elements[0]
        ident = identity_like(first)
        for e in self.elements:
            _require_same_family(first, e)
        self._index: dict[Element, int] = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise UsageError("duplicate elements in enumeration")
        self.generators: tuple[int, ...] = tuple(generators)
        if ident not in self._index:
            raise UsageError("identity missing from enumeration")
        self.identity: int = self._index[ident]
        self._inverses: tuple[int, ...] | None = None
        self._conjugation_maps: dict[int, tuple[int, ...]] = {}
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._class_of: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, i: int) -> Element:
        return self.elements[i]

    def index_of(self, e: Element) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UsageError(f"element {e} is not in the group") from None

    def __contains__(self, e: Element) -> bool:
        return e in self._index

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        try:
            return self._index[_product(self.elements[i], self.elements[j])]
        except KeyError:
            raise UsageError("element enumeration is not closed under the product") from None

    def inv(self, i: int) -> int:
        if self._inverses is None:
            self._inverses = tuple(self.index_of(inverse(e)) for e in self.elements)
        return self._inverses[i]

    def conjugate(self, g: int, x: int) -> int:
        """Index of g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def _conjugation_map(self, g: int) -> tuple[int, ...]:
        """The index map x -> g^-1 x g, built from ``_product``/``inverse``."""
        row = self._conjugation_maps.get(g)
        if row is None:
            e = self.elements[g]
            e_inv = inverse(e)
            try:
                row = tuple(self._index[_product(_product(e_inv, x), e)] for x in self.elements)
            except KeyError:
                raise UsageError("element enumeration is not closed under the product") from None
            self._conjugation_maps[g] = row
        return row

    def conjugation_orbit(self, sets: Sequence[Iterable[int]]) -> list[tuple[frozenset[int], ...]]:
        """Orbit of a tuple of element-index sets under simultaneous conjugation.

        A breadth-first search over the generators, so its cost is the orbit
        length times the number of generators.  The orbit comes back in
        discovery order, starting with ``sets`` itself.
        """
        maps = [self._conjugation_map(g) for g in self.generators]
        start = tuple(frozenset(s) for s in sets)
        seen = {start}
        orbit = [start]
        for item in orbit:
            for row in maps:
                image = tuple(frozenset(row[x] for x in s) for s in item)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        return orbit

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition into conjugacy classes, ordered by least member index,
        members ascending.  Computed once and cached."""
        if self._classes is None:
            class_of = [-1] * self.order
            classes: list[tuple[int, ...]] = []
            for i, cid in enumerate(class_of):
                if cid >= 0:
                    continue
                members = sorted(x for (s,) in self.conjugation_orbit([(i,)]) for x in s)
                for x in members:
                    class_of[x] = len(classes)
                classes.append(tuple(members))
            self._class_of = tuple(class_of)
            self._classes = tuple(classes)
        return self._classes

    def class_index(self, i: int) -> int:
        self.conjugacy_classes()
        assert self._class_of is not None
        return self._class_of[i]


def generate_group(generators: Iterable[Element], max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Close a generator list under the product into a FiniteGroup.

    Enumeration order is canonical: the distinct generators sorted by
    ``element_key`` come first, then new products in breadth-first discovery
    order.  Raises ResourceError if the closure would exceed ``max_elements``.
    A permutation of degree d > 16 stores d images, so for those the cap is
    ``max_elements * 16 // d``: the memory bound stays that of degree 16.
    """
    gens = list(generators)
    if not gens:
        raise UsageError("at least one generator is required")
    for g in gens[1:]:
        _require_same_family(gens[0], g)
    seeds = sorted(set(gens), key=element_key)
    cap, where = max_elements, ""
    if isinstance(seeds[0], Perm) and seeds[0].degree > 16:
        cap, where = max_elements * 16 // seeds[0].degree, f" at degree {seeds[0].degree}"
    elements: list[Element] = list(seeds)
    index: dict[Element, int] = {e: i for i, e in enumerate(elements)}
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for g in seeds:
            p = _product(x, g)
            if p not in index:
                if len(elements) >= cap:
                    raise ResourceError(f"group closure exceeded the element cap of {cap}{where}")
                index[p] = len(elements)
                elements.append(p)
    return FiniteGroup(elements, range(len(seeds)))


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of ``group``; see FiniteGroup.conjugacy_classes."""
    return group.conjugacy_classes()
