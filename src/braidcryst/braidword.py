"""Braid words and the abelianized pure-braid lattice.

A word on ``n`` strands is a sequence of nonzero letters; letter ``k > 0`` is
the positive Artin generator crossing positions ``k, k+1`` and ``-k`` its
inverse.  Text form is space-separated, e.g. ``"2 -1 5 -4"``; the empty
string is the empty word.

The free abelian group on the pure-braid generators ``A[i,j]``
(``1 <= i < j <= n``) is represented by :class:`PairVector` with coordinates
in lexicographic pair order.  :func:`crossing_counts` reads a word in one
sweep, tracking the strand order and crediting each letter ``+-k`` to the two
strands currently at positions ``k, k+1``; the permutation of a word and its
normal form (``quotient.normalize``) both come from that sweep.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Mapping, Sequence

from .permutation import Permutation, Record, parse_int


class VerificationError(AssertionError):
    """Raised when a result fails the check the engine makes before returning
    it; unlike an ``assert``, the check still runs under ``python -O``."""


@lru_cache(maxsize=64)
def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs ``(i, j)`` with ``1 <= i < j <= n`` in lexicographic order.

    Built once per process for each of the last 64 degrees; callers share
    the tuple and its pairs.
    """
    # the pair-sized list first, so a huge n fails fast with MemoryError
    basis = [None] * (n * (n - 1) // 2)
    start = 0
    for i in range(1, n):
        basis[start:start + n - i] = [(i, j) for j in range(i + 1, n + 1)]
        start += n - i
    return tuple(basis)


@lru_cache(maxsize=64)
def pair_offsets(n: int) -> tuple[int, ...]:
    """Row offsets: the pair ``(a, b)``, ``a < b``, sits at position
    ``pair_offsets(n)[a] + b`` of ``pairs(n)``.  Cached like :func:`pairs`;
    the hot loops index pairs by them."""
    return (0,) + tuple((a - 1) * (2 * n - a) // 2 - a - 1 for a in range(1, n + 1))


def pair_index(n: int, i: int, j: int) -> int:
    """Position of ``(i, j)`` in ``pairs(n)``.

    >>> [pair_index(3, *p) for p in pairs(3)]
    [0, 1, 2]
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    return pair_offsets(n)[i] + j


def pair_images(p: Permutation) -> list[int]:
    """The pair action of ``p`` on pair positions: entry ``pair_index(P)`` is
    ``pair_index(p.pair_action(P))``.

    >>> pair_images(Permutation.from_text(3, "(1,2,3)"))
    [2, 0, 1]
    """
    off, images = pair_offsets(p.n), p.images
    return [
        off[a] + b if a < b else off[b] + a
        for i, a in enumerate(images) for b in images[i + 1:]
    ]


class BraidWord(Record):
    """An unreduced word in the Artin generators of the n-strand braid group."""

    __slots__ = _fields = ("n", "letters")
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters: tuple[int, ...]) -> None:
        if type(n) is not int:
            raise TypeError(f"strand count must be an integer, got {n!r}")
        if n < 2:
            raise ValueError("need at least 2 strands")
        for e in letters:
            if type(e) is not int:
                raise TypeError(f"braid word letters must be integers, got {e!r}")
            if e == 0 or abs(e) > n - 1:
                raise ValueError(f"letter {e} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def from_text(n: int, text: str) -> "BraidWord":
        text = text.strip()
        letters = tuple(parse_int(tok) for tok in text.split()) if text else ()
        return BraidWord(n, letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-e for e in reversed(self.letters)))

    def permutation(self) -> Permutation:
        """Strand ``s`` goes to its final position; first letter acts first."""
        return Permutation(tuple(crossing_counts(self)[0])).inverse()

    def __str__(self) -> str:
        return " ".join(map(str, self.letters))


class PairVector(Record):
    """Integer vector indexed by strand pairs in lexicographic order.

    The coefficients are stored as signed bytes when every entry lies in
    ``[-128, 127]`` and as the exact tuple otherwise.  The choice depends only
    on the values, so equal vectors have equal storage; ``coeffs`` is always a
    tuple of ints.  It is a :class:`Record` on the fields ``n`` and
    ``coeffs``, compared and hashed by ``n`` and the storage.
    """

    __slots__ = ("n", "_data")
    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[int]) -> None:
        if len(coeffs) != n * (n - 1) // 2:
            raise ValueError("coefficient count does not match n")
        try:
            data: bytes | tuple[int, ...] = struct.pack(f"{len(coeffs)}b", *coeffs)
        except struct.error:
            data = tuple(coeffs)
            if not all(isinstance(c, int) for c in data):
                raise TypeError("pair vector coefficients must be integers") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_data", data)

    @property
    def coeffs(self) -> tuple[int, ...]:
        data = self._data
        return data if type(data) is tuple else struct.unpack(f"{len(data)}b", data)

    @staticmethod
    def zero(n: int) -> "PairVector":
        return PairVector(n, (0,) * (n * (n - 1) // 2))

    @staticmethod
    def basis(n: int, i: int, j: int) -> "PairVector":
        return PairVector.from_pairs(n, {(i, j): 1})

    @staticmethod
    def from_pairs(n: int, data: Mapping[tuple[int, int], int]) -> "PairVector":
        coeffs = [0] * (n * (n - 1) // 2)
        for (i, j), c in data.items():
            coeffs[pair_index(n, i, j)] = c
        return PairVector(n, coeffs)

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs[pair_index(self.n, i, j)]

    def support(self) -> dict[tuple[int, int], int]:
        return {
            p: c for p, c in zip(pairs(self.n), self.coeffs) if c != 0
        }

    def is_zero(self) -> bool:
        return not any(self._data)

    def __add__(self, other: "PairVector") -> "PairVector":
        if not isinstance(other, PairVector):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return PairVector(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PairVector") -> "PairVector":
        if not isinstance(other, PairVector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PairVector":
        return PairVector(self.n, [-a for a in self.coeffs])

    def scaled(self, c: int) -> "PairVector":
        return PairVector(self.n, [c * a for a in self.coeffs])

    def precompose(self, p: Permutation) -> "PairVector":
        """The vector ``w`` with ``w[P] = self[pair_action(p, P)]``."""
        if p.n != self.n:
            raise ValueError("degree mismatch")
        v = self.coeffs
        return PairVector(self.n, [v[k] for k in pair_images(p)])

    def to_json(self) -> dict[str, int]:
        return {f"{i},{j}": c for (i, j), c in sorted(self.support().items())}

    @staticmethod
    def from_json(n: int, data: Mapping[str, int]) -> "PairVector":
        """Parse ``{"i,j": c, ...}``; each key is two integers in the syntax
        of :func:`permutation.parse_int`, no two keys may name one pair, and
        values must be ints (not bools or floats)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"vector must be an object of \"i,j\": integer entries, got {data!r}")
        parsed: dict[tuple[int, int], int] = {}
        for key, c in data.items():
            try:
                i, j = map(parse_int, key.split(","))
            except (AttributeError, ValueError):
                raise ValueError(f"bad pair key {key!r}: expected \"i,j\"") from None
            if type(c) is not int:
                raise ValueError(f"coefficient of {key!r} must be an integer, got {c!r}")
            if (i, j) in parsed:
                raise ValueError(f"key {key!r} names the pair ({i},{j}) a second time")
            parsed[i, j] = c
        return PairVector.from_pairs(n, parsed)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return ", ".join(f"{{{i},{j}}}:{c}" for (i, j), c in sorted(self.support().items()))


def crossing_counts(word: BraidWord) -> tuple[list[int], list[int]]:
    """Sweep ``word`` once: the final strand order (``order[pos-1]`` is the
    strand at position ``pos``) and, per strand pair in lex order, the signed
    number of times the pair crosses."""
    n = word.n
    # the pair-sized list first, so a huge n fails fast with MemoryError
    counts = [0] * (n * (n - 1) // 2)
    off = pair_offsets(n)
    order = list(range(1, n + 1))
    for e in word.letters:
        k = abs(e)
        a, b = order[k - 1], order[k]
        counts[off[a] + b if a < b else off[b] + a] += 1 if e > 0 else -1
        order[k - 1], order[k] = b, a
    return order, counts


def pure_generator_word(n: int, i: int, j: int) -> BraidWord:
    """The standard representative of ``A[i,j]``: conjugate ``sigma_i^2``
    down from position ``j-1``."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    prefix = list(range(j - 1, i, -1))
    letters = prefix + [i, i] + [-k for k in reversed(prefix)]
    return BraidWord(n, tuple(letters))


def pure_word(vec: PairVector) -> BraidWord:
    """A word representing a lattice vector: generator words in lex pair order."""
    letters: list[int] = []
    for (i, j), c in sorted(vec.support().items()):
        g = pure_generator_word(vec.n, i, j)
        letters += (g if c > 0 else g.inverse()).letters * abs(c)
    return BraidWord(vec.n, tuple(letters))


def full_twist_word(n: int) -> BraidWord:
    """``(sigma_1 ... sigma_{n-1})^n``, the generator of the center."""
    return BraidWord(n, tuple(range(1, n)) * n)
