"""Concrete group element families and a fully enumerated finite group engine.

Three element families are supported: permutations of {0, ..., n-1}, invertible
2x2 matrices over Z/m, and unit/residue pairs (u, v) with u a unit mod m.
Elements are immutable named tuples of their fields, so they compare, hash
and order as those tuples.  Products read left to right: ``compose(x, y)``
applies x first for permutations, is the matrix product ``x y`` for
matrices, and is ``(u, v)(u', v') = (u u', v + u v')`` for pairs.

Each family's product and inverse are written once, on private element keys
(``_key``).  A matrix key is its entry rows and a pair key is ``(u, v)``.  A
permutation of degree <= 256 is keyed by its images as ``bytes``: the
product is then one ``bytes.translate`` and the inverse one
``bytes.maketrans``, both in C, about 8 times cheaper than building and
hashing an int tuple, and the inner loop of every group algorithm here is
that product and a dict lookup.  Above degree 256 an image no longer fits in
a byte, so the key is the image tuple, multiplied by one
``operator.itemgetter``.  ``_key_product`` and ``_key_inverse`` pick the
product and inverse for a degree or modulus; ``compose`` and ``inverse`` wrap
them and build the result from its key with ``tuple.__new__``, without
re-validating it, since the product of two valid elements of one family, and
the inverse of a valid element, are always valid.  ``compose`` first checks
that its factors share one family and degree or modulus.  The element
constructors (each class's ``__new__``) validate their input;
``parse_cycles`` builds its permutation, valid by construction, without.

A group is its keys.  ``generate_group``, the one way to build a
``FiniteGroup``, closes its generators in key space and hands over the keys,
indexed by a dict, and no element object: ``element(i)`` builds one from its
key on demand, so an element costs the memory of its key alone.  A group
product or inverse multiplies or inverts keys, so it builds no element
object and runs no Python-level ``__hash__`` or ``__eq__``; its derived
tables (conjugation maps, classes) are tuples of indices.  Keys of
different families or moduli can be equal (the identity matrices mod 4 and
mod 8), so ``index_of`` and ``in`` check an element's family and degree or
modulus before they look its key up.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

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


class Perm(NamedTuple("Perm", [("images", tuple[int, ...])])):
    """Permutation of {0, ..., degree-1} stored as its image tuple."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise UsageError(f"images {images!r} do not form a permutation of 0..{len(images) - 1}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return cycle_string(self)


class Mat2(NamedTuple("Mat2", [("modulus", int),
                               ("entries", tuple[tuple[int, int], tuple[int, int]])])):
    """Invertible 2x2 matrix over Z/modulus, entries stored row-major and reduced."""

    __slots__ = ()

    def __new__(cls, modulus: int, entries):
        m = int(modulus)
        if m < 2:
            raise UsageError(f"matrix modulus must be >= 2, got {m}")
        (a, b), (c, d) = entries
        ent = ((int(a) % m, int(b) % m), (int(c) % m, int(d) % m))
        det = (ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]) % m
        if math.gcd(det, m) != 1:
            raise UsageError(f"determinant {det} is not a unit mod {m}")
        return super().__new__(cls, m, ent)

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a},{b}],[{c},{d}]]"


class SemiPair(NamedTuple("SemiPair", [("modulus", int), ("u", int), ("v", int)])):
    """Pair (u, v) with u a unit mod modulus, v any residue.

    The product is (u, v)(u', v') = (u u', v + u v'), the semidirect product of
    the unit group acting on the additive group by multiplication.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, u: int, v: int):
        m = int(modulus)
        if m < 2:
            raise UsageError(f"pair modulus must be >= 2, got {m}")
        u = int(u) % m
        v = int(v) % m
        if math.gcd(u, m) != 1:
            raise UsageError(f"first component {u} is not a unit mod {m}")
        return super().__new__(cls, m, u, v)

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


Element = Union[Perm, Mat2, SemiPair]


def _parameter(e: Element) -> int:
    """The degree of a permutation, the modulus of a matrix or pair."""
    return e.degree if isinstance(e, Perm) else e.modulus


def _require_same_family(e1: Element, e2: Element) -> None:
    if type(e1) is not type(e2):
        raise UsageError(f"cannot mix {type(e1).__name__} with {type(e2).__name__}")
    if _parameter(e1) != _parameter(e2):
        kind = "degree" if isinstance(e1, Perm) else "modulus"
        raise UsageError(f"{kind} mismatch: {_parameter(e1)} vs {_parameter(e2)}")


def compose(e1: Element, e2: Element) -> Element:
    """Group product of two elements of the same family; e1 acts first for perms."""
    _require_same_family(e1, e2)
    return _from_key(e1, _key_product(e1)(_key(e1), _key(e2)))


# A permutation up to this degree is keyed by its images as bytes, since each
# image fits in a byte; the one size dispatch of ``_key`` and ``_key_product``.
_MAX_BYTES_DEGREE = 256

# The identity permutation of all 256 bytes.  Its slices are the identity key
# of a degree and the pad that fills a key out to a ``translate`` table; a
# slice takes 0.07 us, ``bytes(range(d, 256))`` 5 us (Python 3.11, 2 vCPUs).
_BYTE_IDENTITY = bytes(range(_MAX_BYTES_DEGREE))


def _key(e: Element):
    """The key a group indexes, multiplies and orders by: a permutation's
    images, as bytes up to ``_MAX_BYTES_DEGREE``; a matrix's entry rows; a
    pair's ``(u, v)``.  Within one family and degree or modulus keys sort
    as the elements do, a bytes key as its image tuple."""
    if isinstance(e, Perm):
        return bytes(e.images) if len(e.images) <= _MAX_BYTES_DEGREE else e.images
    if isinstance(e, Mat2):
        return e.entries
    if isinstance(e, SemiPair):
        return (e.u, e.v)
    raise UsageError(f"unsupported element type {type(e).__name__}")


def _perm_key_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # Only called above degree 256, where itemgetter always returns a tuple.
    return itemgetter(*a)(b)


def _perm_key_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


def _key_product(e: Element):
    """The product on ``_key`` keys of e's family and degree or modulus."""
    if isinstance(e, Perm):
        if e.degree > _MAX_BYTES_DEGREE:
            return _perm_key_product
        # x acts first, so the product maps i to b[a[i]]: ``a.translate`` with
        # b padded to the 256-byte table it requires.  The pad is never read,
        # since every byte of a is below the degree.
        pad = _BYTE_IDENTITY[e.degree:]

        def bytes_perm_key_product(a, b):
            return a.translate(b + pad)
        return bytes_perm_key_product
    if isinstance(e, Mat2):
        m = e.modulus

        def mat2_key_product(x, y):
            (a, b), (c, d) = x
            (q, r), (s, t) = y
            return (((a * q + b * s) % m, (a * r + b * t) % m),
                    ((c * q + d * s) % m, (c * r + d * t) % m))
        return mat2_key_product
    if isinstance(e, SemiPair):
        m = e.modulus

        def pair_key_product(x, y):
            return (x[0] * y[0]) % m, (x[1] + x[0] * y[1]) % m
        return pair_key_product
    raise UsageError(f"unsupported element type {type(e).__name__}")


def _key_inverse(e: Element):
    """The inverse on ``_key`` keys of e's family and degree or modulus."""
    if isinstance(e, Perm):
        n = e.degree
        if n > _MAX_BYTES_DEGREE:
            return _perm_key_inverse
        # maketrans(a, ident) maps byte a[i] to i, so its first n bytes are
        # the inverse images; the rest of the 256-byte table is dropped.
        ident = _BYTE_IDENTITY[:n]

        def bytes_perm_key_inverse(a):
            return bytes.maketrans(a, ident)[:n]
        return bytes_perm_key_inverse
    if isinstance(e, Mat2):
        m = e.modulus

        def mat2_key_inverse(x):
            (a, b), (c, d) = x
            w = pow((a * d - b * c) % m, -1, m)
            return (((d * w) % m, (-b * w) % m), ((-c * w) % m, (a * w) % m))
        return mat2_key_inverse
    if isinstance(e, SemiPair):
        m = e.modulus

        def pair_key_inverse(x):
            w = pow(x[0], -1, m)
            return w, (-w * x[1]) % m
        return pair_key_inverse
    raise UsageError(f"unsupported element type {type(e).__name__}")


def _from_key(like: Element, key) -> Element:
    """The element of ``like``'s family and degree or modulus with this
    ``_key``, built by ``tuple.__new__`` without the validating ``__new__``:
    the key must be a valid one.  A permutation gets its images as a tuple
    whatever its key, so equality and hashing of elements do not depend on
    how they were built."""
    if isinstance(like, Perm):
        return tuple.__new__(type(like), (tuple(key),))
    if isinstance(like, Mat2):
        return tuple.__new__(type(like), (like.modulus, key))
    return tuple.__new__(type(like), (like.modulus, key[0], key[1]))


def _translate_table(k: bytes) -> bytes:
    """The 256-byte ``bytes.translate`` table of a bytes key k: x.translate
    of it is the product x k.  The pad is never read, since every byte of x
    is below the degree."""
    return k + _BYTE_IDENTITY[len(k):]


def _key_right_multiplier(like: Element, k):
    """The map x -> x k on ``_key`` keys of ``like``'s family and degree or
    modulus.  For a bytes key the 256-byte ``translate`` table of k is built
    here, once, rather than once per product."""
    if isinstance(k, bytes):
        table = _translate_table(k)

        def bytes_perm_right_multiplier(x):
            return x.translate(table)
        return bytes_perm_right_multiplier
    product = _key_product(like)

    def right_multiplier(x):
        return product(x, k)
    return right_multiplier


def inverse(e: Element) -> Element:
    """Group inverse, built from the inverse of e's key."""
    return _from_key(e, _key_inverse(e)(_key(e)))


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
    product, key = _key_product(e), _key(e)
    ident = _key(identity_like(e))
    k, x = 1, key
    while x != ident:
        x = product(x, key)
        k += 1
    return k


# Well-formed cycle notation.  A str pattern's \s and \d are the characters
# of str.isspace and str.isdecimal, which int() reads.
_CYCLES = re.compile(r"\s*(?:\(\s*\d+\s*(?:,\s*\d+\s*)+\)\s*)*")


def _read_cycles(text: str, degree: int) -> list[list[int]] | None:
    """The cycles of well-formed text, read in bulk, or None where a point is
    out of range, repeated or past int()'s digit limit."""
    try:
        cycles = [list(map(int, part.partition("(")[2].split(",")))
                  for part in text.split(")")[:-1]]
    except ValueError:
        return None
    points = [p for cycle in cycles for p in cycle]
    if len(set(points)) != len(points) or max(points, default=0) >= degree:
        return None
    return cycles


def _scan_cycles(text: str, degree: int) -> list[list[int]]:
    """The cycles of the text, read a character at a time, so that an error
    carries its position."""
    cycles: list[list[int]] = []
    seen: set[int] = set()
    n = len(text)
    # A point has at most this many significant digits, so a longer run is
    # out of range before int() sees it, which refuses over 4300 digits.
    width = len(str(degree - 1))

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
            while pos < n and text[pos].isdecimal():
                pos += 1
            if pos == point_pos:
                raise CycleParseError("expected a point number", point_pos)
            digits = text[point_pos:pos]
            if len(digits) > width:
                # Leading zeros, of any script int() reads, do not count.
                digits = "".join(str(int(d)) for d in digits).lstrip("0") or "0"
                if len(digits) > width:
                    raise CycleParseError(f"point {digits} out of range for degree {degree}",
                                          point_pos)
            point = int(digits)
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
        cycles.append(cycle)
        pos = skip_ws(pos)
    return cycles


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint cycle notation like "(0,7,11)(1,5,6)" into a Perm.

    Points are 0-based and must be below ``degree``; points not listed stay
    fixed; whitespace is ignored; the empty string is the identity.  Raises
    CycleParseError (carrying a text position) for malformed input, repeated
    points, or out-of-range points.  Well-formed text is read in bulk, the
    rest, which includes every error, a character at a time.
    """
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    cycles = _read_cycles(text, degree) if _CYCLES.fullmatch(text) else None
    if cycles is None:
        cycles = _scan_cycles(text, degree)
    images = list(range(degree))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    # A permutation by construction, so Perm's validation is skipped.
    return tuple.__new__(Perm, (tuple(images),))


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
    """A finite group enumerated in a fixed order, stored as the keys of its
    elements.

    ``generate_group`` builds it from the ``_key`` of each element in the
    canonical closure order, from which every downstream ordering (conjugacy
    classes, cosets, graph vertices) derives, and one element standing for
    the family and degree or modulus, which picks the key product and
    inverse.  Its ``generators`` generate it, so orbits under them are whole.
    ``mul`` multiplies two keys and looks the product up, with no family
    check and no element object built; products are never cached.
    ``element(i)`` builds the element of key i on demand; ``elements`` is
    the tuple of all of them, built on first access, which no algorithm of
    the package needs.  ``index_of`` and ``in`` reject an element of another
    family, degree or modulus before the key lookup.  ``inv`` inverts one
    key and looks it up.  Two index tables are cached on first use, each
    built in key and index space:

    * one conjugation map per generator g, x -> g^-1 x g, from two key
      products per element and the inverse of g's key alone;
    * the class partition, as the orbits of single indices under those maps.

    ``conjugation_orbit`` is the orbit walk for tuples of index sets
    (subgroups and their pairs).  Caches are write-once, so sharing an
    instance across threads is safe.
    """

    def __init__(self, like: Element, keys: tuple, index: dict, generators: Sequence[int]):
        self._like = like
        self._keys = keys
        self._index: dict[object, int] = index
        self._key_product = _key_product(like)
        self._key_inverse = _key_inverse(like)
        self.generators: tuple[int, ...] = tuple(generators)
        self.identity: int = index[_key(identity_like(like))]
        self._elements: tuple[Element, ...] | None = None
        self._conjugation_maps: dict[int, tuple[int, ...]] = {}
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._class_of: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def element(self, i: int) -> Element:
        """The element of index i, built from its key."""
        return _from_key(self._like, self._keys[i])

    @property
    def elements(self) -> tuple[Element, ...]:
        """Every element in index order, built from the keys on first access."""
        if self._elements is None:
            like = self._like
            self._elements = tuple(_from_key(like, k) for k in self._keys)
        return self._elements

    def _find(self, e: Element) -> int | None:
        """Index of e, or None.  Keys of different families or moduli can
        be equal, so only an element of this group's family and degree or
        modulus is looked up."""
        like = self._like
        if type(e) is not type(like) or _parameter(e) != _parameter(like):
            return None
        return self._index.get(_key(e))

    def index_of(self, e: Element) -> int:
        i = self._find(e)
        if i is None:
            raise UsageError(f"element {e} is not in the group")
        return i

    def __contains__(self, e: Element) -> bool:
        return self._find(e) is not None

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        keys = self._keys
        return self._index[self._key_product(keys[i], keys[j])]

    def inv(self, i: int) -> int:
        """Index of elements[i]^-1, from the inverse of its key alone."""
        return self._index[self._key_inverse(self._keys[i])]

    def conjugate(self, g: int, x: int) -> int:
        """Index of g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def _conjugation_map(self, g: int) -> tuple[int, ...]:
        """The index map x -> g^-1 x g, built from key products."""
        row = self._conjugation_maps.get(g)
        if row is None:
            index, product = self._index, self._key_product
            k = self._keys[g]
            k_inv = self._key_inverse(k)
            if isinstance(k, bytes):
                # k_inv (x k) inline, with k's translate table built once
                # rather than once per element.
                kt = _translate_table(k)
                pad = kt[len(k):]
                row = tuple(index[k_inv.translate(x.translate(kt) + pad)] for x in self._keys)
            else:
                row = tuple(index[product(product(k_inv, x), k)] for x in self._keys)
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
        members ascending.  Computed once and cached, as the orbits of
        single indices under the generators' conjugation maps: a
        breadth-first walk over ints that marks each index's class as it
        is reached, so no index is visited twice."""
        if self._classes is None:
            maps = [self._conjugation_map(g) for g in self.generators]
            class_of = [-1] * self.order
            classes: list[tuple[int, ...]] = []
            for i, cid in enumerate(class_of):
                if cid >= 0:
                    continue
                cid = class_of[i] = len(classes)
                members = [i]
                for x in members:
                    for row in maps:
                        y = row[x]
                        if class_of[y] < 0:
                            class_of[y] = cid
                            members.append(y)
                members.sort()
                classes.append(tuple(members))
            self._class_of = tuple(class_of)
            self._classes = tuple(classes)
        return self._classes

    def class_index(self, i: int) -> int:
        """Index of the conjugacy class of element i, from the cached table."""
        if self._class_of is None:
            self.conjugacy_classes()
            assert self._class_of is not None
        return self._class_of[i]


def _element_cap(permutation: bool, parameter: int,
                 max_elements: int = DEFAULT_ELEMENT_CAP) -> tuple[int, str]:
    """The closure cap at a degree (``permutation``) or modulus, and where it
    applies, for messages.  A key of degree d holds d bytes or images, so
    for d > 16 the cap is ``max_elements * 16 // d``, which keeps the memory
    bound of degree 16; likewise ``max_elements * 64 // b`` for a modulus of
    b > 64 bits."""
    if permutation and parameter > 16:
        return max_elements * 16 // parameter, f" at degree {parameter}"
    bits = parameter.bit_length()
    if not permutation and bits > 64:
        return max_elements * 64 // bits, f" at a {bits}-bit modulus"
    return max_elements, ""


def generate_group(generators: Iterable[Element], max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Close a generator list under the product into a FiniteGroup.

    Enumeration order is canonical: the distinct generators in ascending
    order come first, then new products in breadth-first discovery order.
    Raises ResourceError if the closure would exceed the cap that
    ``_element_cap`` derives from ``max_elements``.  The closure multiplies
    each new key on the right by every generator's key, through one right
    multiplier per generator, and hands its keys and their index to the
    group, which builds no element object.
    """
    gens = list(generators)
    if not gens:
        raise UsageError("at least one generator is required")
    for g in gens[1:]:
        _require_same_family(gens[0], g)
    seeds = sorted(set(gens))
    like = seeds[0]
    cap, where = _element_cap(isinstance(like, Perm), _parameter(like), max_elements)
    keys = [_key(g) for g in seeds]
    index = {k: i for i, k in enumerate(keys)}
    rights = [_key_right_multiplier(like, k) for k in keys]
    for x in keys:
        for right in rights:
            p = right(x)
            if p not in index:
                if len(keys) >= cap:
                    raise ResourceError(f"group closure exceeded the element cap of {cap}{where}")
                index[p] = len(keys)
                keys.append(p)
    return FiniteGroup(like, tuple(keys), index, range(len(seeds)))


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of ``group``; see FiniteGroup.conjugacy_classes."""
    return group.conjugacy_classes()
