"""Concrete group element families and a fully enumerated finite group engine.

Three element families are supported: permutations of {0, ..., n-1}, invertible
2x2 matrices over Z/m, and unit/residue pairs (u, v) with u a unit mod m.
Elements are immutable named tuples of their fields, so they compare, hash
and order as those tuples.  Products read left to right: ``FiniteGroup.mul``
gives x y, which applies x first for permutations, is the matrix product
``x y`` for matrices, and is ``(u, v)(u', v') = (u u', v + u v')`` for pairs.

Each family's arithmetic is written once, on private element keys (``_key``).
Every element acts on a set of points, so its key can be that action.  A
permutation of degree n acts on n points; a matrix mod m on the m^2 row
vectors (x, y), point x m + y, by v -> v M; a pair (u, v) mod m on the m
residues by t -> u^-1 (t - v).  Each action takes a product x y to x's
action followed by y's, so the key product is the permutation product with
x acting first.  An action on at most 256 points is keyed by its images as
``bytes``: n bytes for a permutation, m^2 for a matrix (m <= 16) and m for
a pair (m <= 256).  The product is then one ``bytes.translate`` and the
inverse one ``bytes.maketrans``, both in C, about 8 times cheaper than
building and hashing an int tuple, and the inner loop of every group
algorithm here is that product and a dict lookup.  Above 256 points an
image no longer fits in a byte, so a permutation is keyed by its image
tuple, multiplied by one ``operator.itemgetter``, a matrix by its entry
rows and a pair by ``(u, v)``, multiplied in integer arithmetic.
``_arithmetic`` picks, once per family and degree or modulus, an
``_Arithmetic`` record of the key product, inverse, right multiplier and
identity.  A loop whose right factor stays fixed over many products builds
that factor's right multiplier once: the closure of ``FiniteGroup``, the
coset walk of ``schreier`` and the double-coset marking of ``search``;
``gassmann``'s closure forms plain key products.  Loops outside this module
reach the keys through ``FiniteGroup._key_space``; none orders them, since
a matrix or pair key does not sort as its element.  The element
constructors (each class's ``__new__``) validate their input, reading
integers through ``operator.index``; ``parse_cycles`` builds its
permutation, valid by construction, without, and so does
``FiniteGroup.element`` from a key.

A group is its keys.  ``FiniteGroup`` closes its generators in key space
and keeps the keys, indexed by a dict, and no element object: ``element(i)``
builds one from its key on demand, so an element costs the memory of its
key alone.  A group product or inverse multiplies or inverts keys, so it
builds no element object and runs no Python-level ``__hash__`` or
``__eq__``; its derived tables (conjugation maps, classes) are tuples of
indices.  Keys of different families or moduli can be equal (a matrix mod
4 and a permutation of degree 16 are both 16 bytes), so ``index_of``
checks an element's family and degree or modulus before it looks its key
up, and raises UsageError for an element of another.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable, Iterable, NamedTuple, Sequence, Union

__all__ = [
    "UsageError",
    "CycleParseError",
    "ResourceError",
    "Perm",
    "Mat2",
    "SemiPair",
    "Element",
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
    """A closure, enumeration or dense matrix exceeded its configured cap."""


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints through ``operator.index``, which passes ints and
    numpy ints; anything else raises UsageError, not truncated or parsed."""
    try:
        values = tuple(values)
        return tuple(map(operator.index, values))
    except TypeError:
        raise UsageError(f"{what}: each value must be an integer, got {values!r}") from None


def _expect(value, kind: type) -> None:
    """UsageError unless ``value`` is a ``kind``: the one type check of a
    library call's arguments."""
    if not isinstance(value, kind):
        raise UsageError(f"expected a {kind.__name__}, got {value!r}")


class Perm(NamedTuple("Perm", [("images", tuple[int, ...])])):
    """Permutation of {0, ..., degree-1} stored as its image tuple."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        images = _integers(images, "permutation images")
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
        try:
            (a, b), (c, d) = entries
        except (TypeError, ValueError):
            raise UsageError(f"matrix entries must be two rows of two, got {entries!r}") from None
        m, a, b, c, d = _integers((modulus, a, b, c, d), "a matrix modulus and entries")
        if m < 2:
            raise UsageError(f"matrix modulus must be >= 2, got {m}")
        ent = ((a % m, b % m), (c % m, d % m))
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
        m, u, v = _integers((modulus, u, v), "a pair modulus and components")
        if m < 2:
            raise UsageError(f"pair modulus must be >= 2, got {m}")
        u, v = u % m, v % m
        if math.gcd(u, m) != 1:
            raise UsageError(f"first component {u} is not a unit mod {m}")
        return super().__new__(cls, m, u, v)

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


Element = Union[Perm, Mat2, SemiPair]


def _parameter(e: Element) -> int:
    """The degree of a permutation, the modulus of a matrix or pair."""
    if not isinstance(e, (Perm, Mat2, SemiPair)):
        raise UsageError(f"unsupported element type {type(e).__name__}")
    return e.degree if isinstance(e, Perm) else e.modulus


def _require_same_family(e1: Element, e2: Element) -> None:
    if type(e1) is not type(e2):
        raise UsageError(f"cannot mix {type(e1).__name__} with {type(e2).__name__}")
    if _parameter(e1) != _parameter(e2):
        kind = "degree" if isinstance(e1, Perm) else "modulus"
        raise UsageError(f"{kind} mismatch: {_parameter(e1)} vs {_parameter(e2)}")


# An element whose action has at most this many points is keyed by its
# images as bytes, since each image fits in a byte; the one size dispatch of
# ``_key``, ``_from_key`` and ``_arithmetic``.
_MAX_BYTES_DEGREE = 256

# The identity permutation of all 256 bytes.  Its slices are the identity key
# of a degree and the pad that fills a key out to a ``translate`` table; a
# slice takes 0.07 us, ``bytes(range(d, 256))`` 5 us (Python 3.11, 2 vCPUs).
_BYTE_IDENTITY = bytes(range(_MAX_BYTES_DEGREE))


def _key(e: Element):
    """The key a group indexes and multiplies by.  Up to
    ``_MAX_BYTES_DEGREE`` points it is the bytes of e's action: a
    permutation's n images; a matrix's m^2 images of the row vectors,
    (x, y) M at x m + y; a pair's m images u^-1 (t - v).  Above, it is a
    permutation's image tuple, a matrix's entry rows or a pair's (u, v).
    Only a permutation's keys sort as its elements do."""
    if isinstance(e, Perm):
        images = e.images
        return bytes(images) if len(images) <= _MAX_BYTES_DEGREE else images
    if isinstance(e, Mat2):
        m = e.modulus
        if m * m > _MAX_BYTES_DEGREE:
            return e.entries
        (a, b), (c, d) = e.entries
        return bytes([(x * a + y * c) % m * m + (x * b + y * d) % m
                      for x in range(m) for y in range(m)])
    if isinstance(e, SemiPair):
        m, v = e.modulus, e.v
        if m > _MAX_BYTES_DEGREE:
            return (e.u, v)
        w = pow(e.u, -1, m)
        return bytes([(t - v) * w % m for t in range(m)])
    raise UsageError(f"unsupported element type {type(e).__name__}")


def _from_key(like: Element, key) -> Element:
    """The element of ``like``'s family and degree or modulus with this
    ``_key``, built by ``tuple.__new__`` without the validating ``__new__``:
    the key must be a valid one.  A permutation gets its images as a tuple
    whatever its key, so equality and hashing of elements do not depend on
    how they were built.  A bytes matrix key holds the images of (1, 0),
    the first row, at point m and of (0, 1), the second, at point 1; a
    bytes pair key holds -u^-1 v at point 0 and u^-1 - u^-1 v at point 1."""
    if isinstance(like, Perm):
        return tuple.__new__(type(like), (tuple(key),))
    m = like.modulus
    if isinstance(like, Mat2):
        if m * m <= _MAX_BYTES_DEGREE:
            key = (divmod(key[m], m), divmod(key[1], m))
        return tuple.__new__(type(like), (m, key))
    if m <= _MAX_BYTES_DEGREE:
        u = pow(key[1] - key[0], -1, m)
        key = (u, -u * key[0] % m)
    return tuple.__new__(type(like), (m, key[0], key[1]))


class _Arithmetic(NamedTuple):
    """The arithmetic of the ``_key`` keys of one family and degree or
    modulus: ``product(a, b)`` is the key of a b, ``inverse(a)`` that of
    a^-1, ``right(k)`` the map x -> x k, built once per fixed factor k, and
    ``identity`` the identity key."""

    product: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]
    right: Callable[[Any], Callable[[Any], Any]]
    identity: Any


def _perm_key_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


def _arithmetic(like: Element) -> _Arithmetic:
    """The key arithmetic of ``like``'s family and degree or modulus, the one
    place that picks it: by the number of points of the action, the bytes
    permutation product for every family up to ``_MAX_BYTES_DEGREE`` points
    (n bytes for a permutation, m^2 for a matrix, m for a pair), and above
    it each family's own arithmetic."""
    n = _parameter(like)
    if isinstance(like, Mat2):
        n *= n  # a matrix mod m acts on the m^2 row vectors
    if n <= _MAX_BYTES_DEGREE:
        # x acts first, so a b maps i to b[a[i]]: ``a.translate`` with b
        # padded to the 256-byte table it requires, never read past the
        # degree.  maketrans(a, ident) maps byte a[i] to i, so its first
        # n bytes are the inverse images.
        pad, ident = _BYTE_IDENTITY[n:], _BYTE_IDENTITY[:n]

        def bytes_product(a, b):
            return a.translate(b + pad)

        def bytes_inverse(a):
            return bytes.maketrans(a, ident)[:n]

        def bytes_right(k):
            table = k + pad  # built once here rather than once per product

            def times_k(x):
                return x.translate(table)
            return times_k
        return _Arithmetic(bytes_product, bytes_inverse, bytes_right, ident)

    if isinstance(like, Perm):
        def product(a, b):
            # itemgetter of more than one index always returns a tuple.
            return operator.itemgetter(*a)(b)
        inverse, identity = _perm_key_inverse, tuple(range(n))
    elif isinstance(like, Mat2):
        m = like.modulus

        def product(x, y):
            (a, b), (c, d) = x
            (q, r), (s, t) = y
            return (((a * q + b * s) % m, (a * r + b * t) % m),
                    ((c * q + d * s) % m, (c * r + d * t) % m))

        def inverse(x):
            (a, b), (c, d) = x
            w = pow((a * d - b * c) % m, -1, m)
            return (((d * w) % m, (-b * w) % m), ((-c * w) % m, (a * w) % m))
        identity = ((1, 0), (0, 1))
    else:
        m = like.modulus

        def product(x, y):
            return (x[0] * y[0]) % m, (x[1] + x[0] * y[1]) % m

        def inverse(x):
            w = pow(x[0], -1, m)
            return w, (-w * x[1]) % m
        identity = (1, 0)

    def right(k):
        def times_k(x):
            return product(x, k)
        return times_k
    return _Arithmetic(product, inverse, right, identity)


# Well-formed cycle notation.  A str pattern's \s and \d are the characters
# of str.isspace and str.isdecimal, which int() reads, and a test pins this.
# The error scanner reads with the same classes: the space between cycles,
# and after a '(' or ',' one point's digits and the character after them.
_CYCLES = re.compile(r"\s*(?:\(\s*\d+\s*(?:,\s*\d+\s*)+\)\s*)*")
_SPACE = re.compile(r"\s*")
_POINT = re.compile(r"\s*(\d*)\s*(.?)", re.DOTALL)


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
    """The cycles of the text, read a point at a time, so that an error
    carries its position."""
    cycles: list[list[int]] = []
    seen: set[int] = set()
    # A point has at most this many digits besides leading zeros, so a longer
    # run is out of range before int(), which refuses over 4300 digits, sees
    # it.  A run that looks out of range is read again without leading zeros.
    width = len(str(degree - 1))
    pos = _SPACE.match(text).end()
    while pos < len(text):
        if text[pos] != "(":
            raise CycleParseError("expected '('", pos)
        cycle: list[int] = []
        sep = ","
        while sep == ",":
            match = _POINT.match(text, pos + 1)
            digits, sep = match.groups()
            pos = match.start(1)
            if not digits:
                raise CycleParseError("expected a point number", pos)
            if len(digits) > width or int(digits) >= degree:
                digits = "".join(str(int(d)) for d in digits).lstrip("0") or "0"
                if len(digits) > width or int(digits) >= degree:
                    raise CycleParseError(f"point {digits} out of range for degree {degree}", pos)
            point = int(digits)
            if point in seen:
                raise CycleParseError(f"point {point} repeated", pos)
            seen.add(point)
            cycle.append(point)
            pos = match.start(2)
            if sep not in (",", ")"):
                raise CycleParseError("expected ',' or ')'", pos)
        if len(cycle) < 2:
            raise CycleParseError("a cycle needs at least two points", pos)
        cycles.append(cycle)
        pos = _SPACE.match(text, pos + 1).end()
    return cycles


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint cycle notation like "(0,7,11)(1,5,6)" into a Perm.

    Points are 0-based and must be below ``degree``; points not listed stay
    fixed; whitespace is ignored; the empty string is the identity.  Raises
    CycleParseError (carrying a text position) for malformed input, repeated
    points, or out-of-range points, and UsageError for a text that is not a
    str or a degree above ``DEFAULT_ELEMENT_CAP``, which bounds a document's
    degree too.  Well-formed text is read in bulk, the rest, every error
    included, a point at a time.
    """
    if not isinstance(text, str):
        raise UsageError(f"cycle text must be a string, got {text!r}")
    try:  # not through _integers, whose tuples cost 0.5 us per document element
        degree = operator.index(degree)
    except TypeError:
        raise UsageError(f"degree must be an integer, got {degree!r}") from None
    if not 1 <= degree <= DEFAULT_ELEMENT_CAP:  # before anything is allocated
        raise UsageError(f"degree must be between 1 and {DEFAULT_ELEMENT_CAP}, got {degree}")
    cycles = _read_cycles(text, degree) if _CYCLES.fullmatch(text) else None
    if cycles is None:
        cycles = _scan_cycles(text, degree)
    images = list(range(degree))
    for cycle in cycles:
        before = cycle[-1]  # each point is the image of the one before it
        for point in cycle:
            images[before] = point
            before = point
    # A permutation by construction, so Perm's validation is skipped.
    return tuple.__new__(Perm, (tuple(images),))


def cycle_string(perm: Perm) -> str:
    """Disjoint cycle notation, least point first in each cycle, cycles ordered
    by least point, fixed points omitted.  The identity renders as ""."""
    _expect(perm, Perm)
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

    The constructor, which ``generate_group`` names, closes a list of
    elements of one family and degree or modulus under the product, in
    key space through one right multiplier per generator.  The order is
    canonical: the distinct generators ascending, then new products in
    breadth-first discovery order; every downstream ordering (conjugacy
    classes, cosets, graph vertices) derives from it.  It raises
    UsageError for a list that is empty, not iterable or not of one
    family, and ResourceError past the cap ``_element_cap`` derives from
    ``max_elements``.  The group keeps its family's ``_Arithmetic`` in
    attributes, so ``mul`` and ``inv`` reach their key arithmetic in one
    lookup.  Its ``generators`` are indices 0 to k-1 and generate it, so
    orbits under them are whole.  ``mul`` multiplies two keys and looks the
    product up, with no family check and no element object built; it
    caches nothing.  ``element(i)`` builds the element of key i on demand,
    so the group never holds an element object; the elements are
    ``element(i)`` for i in ``range(order)``.  ``index_of`` rejects an
    element of another family, degree or modulus before the key lookup.
    ``inv`` inverts one key and looks it up.  Until its first conjugation
    maps are built the group also holds what the closure's lookups found:
    the row of each generator, ``rows[j][x]`` the index of x g_j, and the
    discovery edge of each new element, its parent and the row it was
    found in.  Two index tables are cached on first use, both built with
    no key product:

    * the conjugation maps x -> g^-1 x g of the generators, in generator
      order.  Left multiplication by h = g^-1 commutes with every row,
      h (x g_j) = (h x) g_j, so x -> h x is one lookup per element, walked
      down the discovery edges from h g_j = ``rows[j][h]``; the map is
      that walk after g's row.  The rows and edges are then dropped;
    * the class partition, as the orbits of single indices under the maps.

    ``conjugation_orbit`` is the orbit walk for one index set (a
    subgroup); on request it records the arcs that normalisers and orbits
    on pairs of subgroups are read from.  Caches are write-once, and the
    rows are dropped only after the maps are stored, so sharing an instance
    across threads is safe.
    """

    def __init__(self, generators: Iterable[Element], max_elements: int = DEFAULT_ELEMENT_CAP):
        try:
            gens = list(generators)
        except TypeError:
            raise UsageError(f"generators must be iterable, got {generators!r}") from None
        (max_elements,) = _integers((max_elements,), "the element cap")
        if not gens:
            raise UsageError("at least one generator is required")
        for g in gens[1:]:
            _require_same_family(gens[0], g)
        # Before the generators are hashed or sorted, so a non-element is a UsageError.
        parameter = _parameter(gens[0])
        cap, where = _element_cap(isinstance(gens[0], Perm), parameter, max_elements)
        seeds = sorted(set(gens))
        like = seeds[0]
        self._like = like
        self._family = (type(like), parameter)
        self._arithmetic = arithmetic = _arithmetic(like)
        self._product, self._inverse, right, identity = arithmetic
        keys = [_key(g) for g in seeds]
        index = {k: i for i, k in enumerate(keys)}
        rows: list[list[int]] = [[] for _ in seeds]
        steps = [(right(k), row, row.append) for k, row in zip(keys, rows)]
        parents: list[int] = []
        found_in: list[list[int]] = []
        setdefault, n = index.setdefault, len(keys)
        for x in keys:
            for times_g, row, append in steps:
                p = times_g(x)
                i = setdefault(p, n)
                if i is n:  # p is new, and now indexed by n
                    if n >= cap:
                        raise ResourceError(f"group closure exceeded the element cap of {cap}{where}")
                    keys.append(p)
                    # The dict's own int, so a parent costs no int object.
                    parents.append(index[x])
                    found_in.append(row)
                    n = len(keys)
                append(i)
        self._keys = tuple(keys)
        self._index: dict[object, int] = index
        self.generators: tuple[int, ...] = tuple(range(len(seeds)))
        self.identity: int = index[identity]
        self._cayley: tuple | None = (rows, parents, found_in)
        self._maps: tuple[tuple[int, ...], ...] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._class_of: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self._keys)

    def element(self, i: int) -> Element:
        """The element of index i, built from its key.  UsageError unless
        ``0 <= i < order``: a tuple index would read -1 as the last key."""
        keys = self._keys
        if not 0 <= i < len(keys):
            raise UsageError(f"element index {i} out of range for a group of order {len(keys)}")
        return _from_key(self._like, keys[i])

    def index_of(self, e: Element) -> int:
        """The index of e.  Keys of different families or moduli can be
        equal, so only an element of this group's family and degree or
        modulus is looked up; any other raises UsageError."""
        kind, parameter = self._family
        if type(e) is kind and (len(e.images) if kind is Perm else e.modulus) == parameter:
            i = self._index.get(_key(e))
            if i is not None:
                return i
        raise UsageError(f"element {e} is not in the group")

    def mul(self, i: int, j: int) -> int:
        """Index of the product x y of elements x = i and y = j; x acts first."""
        keys = self._keys
        return self._index[self._product(keys[i], keys[j])]

    def inv(self, i: int) -> int:
        """Index of the inverse of element i, from the inverse of its key alone."""
        return self._index[self._inverse(self._keys[i])]

    def _key_space(self) -> tuple[tuple, dict, _Arithmetic]:
        """``(keys, index, arithmetic)``, the one way in for loops that
        multiply in key space: they read each key once and look up only the
        products, where ``mul`` reads both keys and makes two calls."""
        return self._keys, self._index, self._arithmetic

    def _conjugation_maps(self) -> tuple[tuple[int, ...], ...]:
        """The index maps x -> g^-1 x g of the generators g, in generator order."""
        maps = self._maps
        if maps is None:
            cayley = self._cayley
            if cayley is None:  # another thread stored the maps, then dropped these
                return self._maps
            rows, parents, found_in = cayley
            built = []
            for g in self.generators:
                h = self.inv(g)
                left = [row[h] for row in rows]  # h g_j, the generators come first
                append = left.append
                for parent, row in zip(parents, found_in):
                    append(row[left[parent]])
                built.append(tuple(map(left.__getitem__, rows[g])))
            maps = self._maps = tuple(built)
            self._cayley = None
        return maps

    def conjugation_orbit(self, members: Iterable[int],
                          arcs: list[int] | None = None) -> list[frozenset[int]]:
        """Orbit of one set of element indices, such as a subgroup's members,
        under conjugation.

        A breadth-first search over the generators, so its cost is the orbit
        length times the number of generators.  The orbit comes back in
        discovery order, starting with the members themselves.  Given a list
        as ``arcs``, the walk appends to it the orbit position of the image
        of item i under generator k, for each item in turn and the
        generators in order, so that arc i * len(generators) + k is that
        position; ``gassmann`` reads transversals and stabilisers off these
        arcs, and ``search`` the orbits on pairs of subgroups.  The members
        are checked once, before the walk: UsageError unless they are
        integer indices below the order and ``arcs`` is None or a list.
        """
        start = frozenset(_integers(members, "subgroup members"))
        n = len(self._keys)
        for i in (min(start), max(start)) if start else ():
            if not 0 <= i < n:
                raise UsageError(f"element index {i} out of range for a group of order {n}")
        if arcs is not None:
            _expect(arcs, list)
        maps = self._conjugation_maps()
        # An item's images under every map are read by one C-level getter:
        # itemgetter of two or more indices returns their tuple, and walks
        # 17-25% faster than a list of row[x] on PSL(3,2) and PSL(2,11)
        # subgroups (Python 3.11, 2-vCPU VM), but of one index the bare value.
        pick = operator.itemgetter if len(start) > 1 else _list_getter
        orbit = [start]
        if arcs is None:
            seen = {start}
            for item in orbit:
                get = pick(*item)
                for row in maps:
                    image = frozenset(get(row))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            return orbit
        position, arc = {start: 0}, arcs.append
        for item in orbit:
            get = pick(*item)
            for row in maps:
                image = frozenset(get(row))
                j = position.get(image)
                if j is None:
                    j = position[image] = len(orbit)
                    orbit.append(image)
                arc(j)
        return orbit

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition into conjugacy classes, ordered by least member index,
        members ascending.  Computed once and cached, as the orbits of
        single indices under the generators' conjugation maps: a
        breadth-first walk over ints that marks each index's class as it
        is reached, so no index is visited twice."""
        if self._classes is None:
            maps = self._conjugation_maps()
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


def _list_getter(*indices: int) -> Callable[[Sequence[int]], list[int]]:
    """The map row -> [row[i] for i in indices], for fewer indices than an
    ``operator.itemgetter`` returns a tuple of."""
    return lambda row: [row[i] for i in indices]


def _element_cap(permutation: bool, parameter: int,
                 max_elements: int = DEFAULT_ELEMENT_CAP) -> tuple[int, str]:
    """The closure cap at a degree (``permutation``) or modulus, and where it
    applies, for messages.  A key of degree d holds d bytes or images, so
    for d > 16 the cap is ``max_elements * 16 // d``, which keeps the memory
    bound of degree 16; likewise ``max_elements * 64 // b`` for a modulus of
    b > 64 bits, whose matrix or pair key holds four or two such ints.  A
    matrix mod m <= 16 is keyed by m^2 bytes and a pair mod m <= 256 by m
    bytes, and the cap stays unscaled there: such a group has at most
    |GL(2, Z/13)| = 26,208 or 251 * 250 = 62,750 elements.  Besides its key
    and its index entry, an element holds one row entry per generator and
    one tree edge until the first conjugation
    maps are built: with them PSL(3,5) on 31 points (372,000 elements, two
    generators) peaks at 97 MB resident, against 86 MB when the closure kept
    no rows (Python 3.11)."""
    if permutation and parameter > 16:
        return max_elements * 16 // parameter, f" at degree {parameter}"
    bits = parameter.bit_length()
    if not permutation and bits > 64:
        return max_elements * 64 // bits, f" at a {bits}-bit modulus"
    return max_elements, ""


def generate_group(generators: Iterable[Element], max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Close a generator list under the product into a FiniteGroup: the
    documented name of ``FiniteGroup(generators, max_elements)``, which
    runs the one closure."""
    return FiniteGroup(generators, max_elements)


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of ``group``; see FiniteGroup.conjugacy_classes."""
    _expect(group, FiniteGroup)
    return group.conjugacy_classes()
