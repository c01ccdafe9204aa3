"""Permutations of ``{1, ..., n}`` with left-to-right composition.

Products read like braid words: ``(p * q)(i) == q(p(i))``, so the first
factor acts first.  All points are 1-based; the image tuple ``images`` stores
``p(1), ..., p(n)``.  Cycle text uses the usual disjoint-cycle notation,
``"(1,3,2)(4,5,6)"``, with ``"()"`` for the identity.
"""

from __future__ import annotations

import math
import operator
import random
import re
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")
Images = bytes | tuple[int, ...]

#: The integer syntax of all text input.  ``int`` alone would also take
#: ``+``, ``_``, blanks and non-ASCII digits such as ``"٢"``.
INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """``text`` as an integer if all of it matches :data:`INTEGER`."""
    if INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Record:
    """Base of the immutable value classes.

    A subclass keeps nothing but its storage, declared in ``__slots__``, and
    names its fields in ``_fields``.  The fields are bound positionally or by
    keyword, and ``repr`` and pickling go by them in that order; no attribute
    can be set or deleted after construction.  Equality (same class) and
    hashing go by the storage, which needs one invariant: equal values have
    equal storage.  A subclass that validates its fields writes its own
    ``__init__`` and binds them with ``object.__setattr__``; one that stores
    another encoding names properties in ``_fields`` that decode it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = {**dict(zip(names, args)), **kwargs}
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Permutation(Record):
    """A bijection of ``{1..n}``; ``images`` is the tuple ``p(1), ..., p(n)``.

    The images are stored as bytes when ``n < 256`` and as the tuple
    otherwise, so equal permutations have equal storage; it is a
    :class:`Record` on the one field ``images``.

    >>> p = Permutation.from_text(3, "(1,3,2)")
    >>> p(1), p(3), p(2)
    (3, 2, 1)
    >>> str(p * p)
    '(1,2,3)'
    """

    __slots__ = ("_images",)
    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        # operator.index rejects what bytes() rejects below 256 points (1.0, say)
        object.__setattr__(self, "_images", bytes(images) if n < 256 else tuple(map(operator.index, images)))

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self._images)

    @property
    def n(self) -> int:
        return len(self._images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            if not cycle:
                raise ValueError("empty cycle")
            for a in cycle:
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} outside 1..{n}")
                if a in seen:
                    raise ValueError(f"cycles are not disjoint at point {a}")
                seen.add(a)
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a - 1] = b
        return Permutation(tuple(images))

    @staticmethod
    def from_text(n: int, text: str) -> "Permutation":
        """Parse disjoint-cycle notation; ``"()"`` is the identity."""
        text = text.strip()
        if text in ("", "()"):
            return Permutation.identity(n)
        point = INTEGER.pattern
        if not re.fullmatch(rf"(\(\s*{point}(\s*,\s*{point})*\s*\))+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = [
            [int(a) for a in group.split(",")]
            for group in re.findall(r"\(([^()]+)\)", text)
        ]
        return Permutation.from_cycles(n, cycles)

    def __call__(self, i: int) -> int:
        return self._images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: ``self`` first, then ``other``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other._images[i - 1] for i in self._images))

    def __pow__(self, m: int) -> "Permutation":
        """``p^m`` for any integer ``m``, read off the cycles in one pass."""
        images = list(range(1, self.n + 1))
        for c in self.cycles():
            for i, a in enumerate(c):
                images[a - 1] = c[(i + m) % len(c)]
        return Permutation(tuple(images))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, j in enumerate(self._images, start=1):
            images[j - 1] = i
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(self._images[i] == i + 1 for i in range(self.n))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, ordered by it."""
        images = (0, *self._images)
        out: list[tuple[int, ...]] = []
        seen = bytearray(len(images))
        for start in range(1, len(images)):
            if seen[start] or images[start] == start:
                continue
            cycle = [start]
            a = images[start]
            while a != start:
                cycle.append(a)
                seen[a] = 1
                a = images[a]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Nontrivial cycle lengths, non-increasing; blind to the degree."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def pair_action(self, pair: tuple[int, int]) -> tuple[int, int]:
        """Image of an unordered pair, returned with the smaller point first."""
        i, j = pair
        a, b = self(i), self(j)
        return (a, b) if a < b else (b, a)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def conjugating_permutation(
    sources: Sequence[Permutation], targets: Sequence[Permutation]
) -> Permutation | None:
    """The lexicographically least ``s`` with ``s * a * s^-1 == b`` for each
    source ``a`` and its target ``b``, or ``None`` when there is none.

    ``s`` obeys ``s(b(x)) = a(s(x))``, so its value at one point fixes it on
    that point's orbit under the targets.  Taken in ascending order, each
    point not yet placed goes to the least unused point from which the rule
    propagates over its orbit with no conflict and no point used twice.
    This greedy choice is safe because isomorphism of marked transitive
    actions is an equivalence relation.  The work is O(k n^2) for k pairs.

    >>> a, b = Permutation.from_text(3, "(1,2,3)"), Permutation.from_text(3, "(1,3,2)")
    >>> s = conjugating_permutation((a,), (b,))
    >>> str(s), s * a * s.inverse() == b
    ('(2,3)', True)
    >>> conjugating_permutation((a,), (Permutation.from_text(3, "(1,2)"),)) is None
    True
    """
    if not sources or len(sources) != len(targets):
        raise ValueError("need one target for each of at least one source")
    n = sources[0].n
    if any(p.n != n for p in (*sources, *targets)):
        raise ValueError("degree mismatch")
    moves = [(a._images, b._images) for a, b in zip(sources, targets)]
    s = [0] * (n + 1)  # s[x] for the points 1..n; 0 while x is unplaced
    used = [False] * (n + 1)

    def match_orbit(base: int, y: int) -> bool:
        """Place ``s(base) = y`` and its orbit; on a conflict undo it all."""
        s[base], used[y] = y, True
        orbit = [base]
        for x in orbit:
            for a, b in moves:
                z, w = b[x - 1], a[s[x] - 1]
                if not s[z] and not used[w]:
                    s[z], used[w] = w, True
                    orbit.append(z)
                elif s[z] != w:
                    for placed in orbit:
                        used[s[placed]], s[placed] = False, 0
                    return False
        return True

    for base in range(1, n + 1):
        if not s[base] and not any(match_orbit(base, y) for y in range(1, n + 1) if not used[y]):
            return None
    return Permutation(tuple(s[1:]))


CLOSURE_LIMIT = 50_000
"""Most group elements :func:`closure` and ``HolonomySubgroup.elements`` list
before refusing with a ``ValueError``; S_8 (40320 elements) still fits."""


def closure(one: T, generators: Sequence[T]) -> set[T]:
    """Every product of ``generators`` under ``*``, grown breadth first from
    ``one``.  Raises ``ValueError`` instead of holding more than
    ``CLOSURE_LIMIT`` elements, so an infinite or very large group does not
    run without bound."""
    found = {one}
    frontier = [one]
    while frontier:
        fresh = []
        for b in (a * g for a in frontier for g in generators):
            if b not in found:
                if len(found) == CLOSURE_LIMIT:
                    raise ValueError(
                        f"the group has more than {CLOSURE_LIMIT} elements; refusing to list them"
                    )
                found.add(b)
                fresh.append(b)
        frontier = fresh
    return found


CHAIN_WORK_LIMIT = 10_000_000
"""Most work :class:`StabilizerChain` does before refusing with a
``ValueError``, counted as the degree times the number of Schreier
generators sifted and orbit points built.  On a 2-core VM, S_44 (about
9.5 million) still fits, in 3.4 s; S_48 is refused after 3.3 s and S_1000
after 2.1 s."""


class StabilizerChain:
    """Base, strong generators and transversals of the group generated by
    ``generators``, built by deterministic Schreier-Sims (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003, section 4.2).

    Level ``i`` holds the strong generators that fix ``base[:i]`` and the
    orbit of ``base[i]`` under them, mapping each orbit point ``x`` to a
    transversal element ``u`` with ``u(base[i]) == x`` and to ``u``'s inverse.
    The group order is the product of the orbit lengths, and a permutation
    lies in the group exactly when it sifts to the identity.  Construction
    raises ``ValueError`` past ``CHAIN_WORK_LIMIT``.  Inside the
    chain points are 0-based and images are stored like ``Permutation``'s:
    bytes below 256 points, where a product is one ``bytes.translate``, and
    tuples otherwise.

    >>> chain = StabilizerChain(4, [Permutation.from_text(4, "(1,2,3,4)"),
    ...                             Permutation.from_text(4, "(1,3)")])
    >>> chain.order(), Permutation.from_text(4, "(2,4)") in chain
    (8, True)
    """

    def __init__(self, n: int, generators: Sequence[Permutation]) -> None:
        self._pack = bytes if n < 256 else tuple
        self._pad = bytes(range(n, 256)) if n < 256 else None
        self.one = self._pack(range(n))
        self.base: list[int] = []
        self.gens: list[list[Images]] = []
        self.orbits: list[dict[int, tuple[Images, Images]]] = []
        self._work = 0
        for p in generators:
            if p.n != n:
                raise ValueError("degree mismatch")
            if not p.is_identity():
                self._add(self._images(p), 0)
        # Holt's loop: once every Schreier generator of a level sifts through
        # the levels below it, the chain is complete from that level down
        i = len(self.base) - 1
        while i >= 0:
            i = self._check(i)

    def _images(self, p: Permutation) -> Images:
        return self._pack(x - 1 for x in p._images)

    def _then(self, a: Images, b: Images) -> Images:
        """Left-to-right product: ``a`` first, then ``b``."""
        if self._pad is None:
            return tuple([b[x] for x in a])
        return a.translate(b + self._pad)

    def _inverse(self, a: Images) -> Images:
        out = [0] * len(a)
        for i, x in enumerate(a):
            out[x] = i
        return self._pack(out)

    def _add(self, g: Images, level: int) -> int:
        """Put ``g`` among the strong generators of levels ``level .. j``,
        where ``base[j]`` is the first base point from ``level`` on that ``g``
        moves (a new level when it fixes them all), and return ``j``."""
        j = level
        while j < len(self.base) and g[self.base[j]] == self.base[j]:
            j += 1
        if j == len(self.base):
            self.base.append(next(x for x, y in enumerate(g) if x != y))
            self.gens.append([])
            self.orbits.append({})
        for i in range(level, j + 1):
            self.gens[i].append(g)
            self._orbit(i)
        return j

    def _spend(self, steps: int) -> None:
        self._work += steps * len(self.one)
        if self._work > CHAIN_WORK_LIMIT:
            raise ValueError(
                f"the stabilizer chain at n={len(self.one)} needs more than "
                f"{CHAIN_WORK_LIMIT} steps of work; refusing to finish it"
            )

    def _orbit(self, i: int) -> None:
        b = self.base[i]
        orbit = {b: (self.one, self.one)}
        points = [b]
        for x in points:
            u = orbit[x][0]
            for s in self.gens[i]:
                if s[x] not in orbit:
                    v = self._then(u, s)
                    orbit[s[x]] = (v, self._inverse(v))
                    points.append(s[x])
        self.orbits[i] = orbit
        self._spend(len(orbit))

    def _check(self, i: int) -> int:
        """Sift each Schreier generator ``u_x * s * u_{s(x)}^-1`` of level ``i``
        through the levels below.  Add the first nontrivial residue (Holt's
        "strip, then add at levels i+1..j") and return ``j``, the level to
        check next; return ``i - 1`` when every residue is trivial."""
        orbit = self.orbits[i]
        for x, (u, _) in orbit.items():
            for s in self.gens[i]:
                us = self._then(u, s)
                if us != orbit[s[x]][0]:
                    self._spend(1)
                    residue = self.sift(self._then(us, orbit[s[x]][1]), i + 1)
                    if residue != self.one:
                        return self._add(residue, i + 1)
        return i - 1

    def sift(self, g: Images, level: int = 0) -> Images:
        """Strip ``g`` (0-based images) through the levels from ``level`` on
        and return what is left; once the chain is complete, that is the
        identity exactly when ``g`` lies in the stabilizer of ``base[:level]``."""
        for i in range(level, len(self.base)):
            coset = self.orbits[i].get(g[self.base[i]])
            if coset is None:
                return g
            g = self._then(g, coset[1])
        return g

    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self.orbits)

    def __contains__(self, p: Permutation) -> bool:
        if p.n != len(self.one):
            return False
        return self.sift(self._images(p)) == self.one

    def random_element(self, rng: random.Random) -> Permutation:
        """A uniform element: one random transversal element per level, the
        deepest level first."""
        g = self.one
        for orbit in reversed(self.orbits):
            g = self._then(g, orbit[rng.choice(list(orbit))][0])
        return Permutation(tuple(x + 1 for x in g))
