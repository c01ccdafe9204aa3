"""Permutations of ``{1, ..., n}`` with left-to-right composition.

Products read like braid words: ``(p * q)(i) == q(p(i))``, so the first
factor acts first.  All points are 1-based; the image tuple ``images`` stores
``p(1), ..., p(n)``.  Cycle text uses the usual disjoint-cycle notation,
``"(1,3,2)(4,5,6)"``, with ``"()"`` for the identity.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class Permutation:
    """A bijection of ``{1..n}``; ``images`` is the tuple ``p(1), ..., p(n)``.

    The images are stored as bytes when ``n < 256`` and as the tuple
    otherwise; equality, hashing and ``repr`` are those of the image tuple.

    >>> p = Permutation.from_text(3, "(1,3,2)")
    >>> p(1), p(3), p(2)
    (3, 2, 1)
    >>> str(p * p)
    '(1,2,3)'
    """

    __slots__ = ("_images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "_images", bytes(images) if n < 256 else tuple(images))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Permutation, (self.images,)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self._images)

    @property
    def n(self) -> int:
        return len(self._images)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
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
        if not re.fullmatch(r"(\(\s*\d+(\s*,\s*\d+)*\s*\))+", text):
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
        if m < 0:
            return self.inverse() ** (-m)
        out, base = Permutation.identity(self.n), self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, j in enumerate(self._images, start=1):
            images[j - 1] = i
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(self._images[i] == i + 1 for i in range(self.n))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, ordered by it."""
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            a = self(start)
            while a != start:
                cycle.append(a)
                seen.add(a)
                a = self(a)
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> "CycleType":
        parts = tuple(sorted((len(c) for c in self.cycles()), reverse=True))
        return CycleType(parts, self.n)

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def inversions(self) -> int:
        return sum(
            1
            for i, j in itertools.combinations(range(1, self.n + 1), 2)
            if self(i) > self(j)
        )

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def pair_action(self, pair: tuple[int, int]) -> tuple[int, int]:
        """Image of an unordered pair, returned with the smaller point first."""
        i, j = pair
        a, b = self(i), self(j)
        return (a, b) if a < b else (b, a)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self(i) == i)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


@dataclass(frozen=True, eq=False)
class CycleType:
    """Multiset of nontrivial cycle lengths; equality ignores the degree."""

    parts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise ValueError("parts must be sorted non-increasing")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic image order (n! elements)."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def closure(one: T, generators: Sequence[T]) -> set[T]:
    """Every product of ``generators`` under ``*``, grown breadth first from
    ``one``; terminates exactly when the generated group is finite."""
    found = {one}
    frontier = [one]
    while frontier:
        products = {a * g for a in frontier for g in generators}
        frontier = [b for b in products if b not in found]
        found.update(frontier)
    return found
