"""Braid words and the abelianized pure-braid lattice.

A word on ``n`` strands is a sequence of nonzero letters; letter ``k > 0`` is
the positive Artin generator crossing positions ``k, k+1`` and ``-k`` its
inverse.  Text form is space-separated, e.g. ``"2 -1 5 -4"``; the empty
string is the empty word.

The free abelian group on the pure-braid generators ``A[i,j]``
(``1 <= i < j <= n``) is represented by :class:`PairVector` with coordinates
in lexicographic pair order.  ``linking_vector`` maps a *pure* word to its
class there: sweep the word tracking the strand order, credit each letter
``+-k`` to the two strands currently at positions ``k, k+1``, and halve the
totals (a pure word crosses every strand pair an even number of times).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

from .permutation import Permutation


class NotPureError(ValueError):
    """Raised when a pure-braid-only operation gets a non-pure word."""


def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs ``(i, j)`` with ``1 <= i < j <= n`` in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def pair_index(n: int, i: int, j: int) -> int:
    """Position of ``(i, j)`` in ``pairs(n)``.

    >>> [pair_index(3, *p) for p in pairs(3)]
    [0, 1, 2]
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i) - 1


def pair_offsets(n: int) -> list[int]:
    """Row offsets with ``pair_index(n, a, b) == pair_offsets(n)[a] + b`` for
    ``a < b``; the hot loops index pairs through them."""
    return [0] + [(a - 1) * (2 * n - a) // 2 - a - 1 for a in range(1, n + 1)]


@dataclass(frozen=True, slots=True)
class BraidWord:
    """An unreduced word in the Artin generators of the n-strand braid group."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        for e in self.letters:
            if e == 0 or abs(e) > self.n - 1:
                raise ValueError(f"letter {e} out of range for n={self.n}")

    @staticmethod
    def from_text(n: int, text: str) -> "BraidWord":
        text = text.strip()
        letters = tuple(int(tok) for tok in text.split()) if text else ()
        return BraidWord(n, letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-e for e in reversed(self.letters)))

    def free_reduced(self) -> "BraidWord":
        """Cancel adjacent inverse letters until none remain."""
        out: list[int] = []
        for e in self.letters:
            if out and out[-1] == -e:
                out.pop()
            else:
                out.append(e)
        return BraidWord(self.n, tuple(out))

    def permutation(self) -> Permutation:
        """Strand ``s`` goes to its final position; first letter acts first."""
        order = list(range(1, self.n + 1))  # order[pos-1] = strand at position pos
        for e in self.letters:
            k = abs(e)
            order[k - 1], order[k] = order[k], order[k - 1]
        images = [0] * self.n
        for pos, strand in enumerate(order, start=1):
            images[strand - 1] = pos
        return Permutation(tuple(images))

    def is_pure(self) -> bool:
        return self.permutation().is_identity()

    def __str__(self) -> str:
        return " ".join(map(str, self.letters))


class PairVector:
    """Integer vector indexed by strand pairs in lexicographic order.

    The coefficients are stored as signed bytes when every entry lies in
    ``[-128, 127]`` and as the exact tuple otherwise.  The choice depends only
    on the values, so equal vectors have equal storage; ``coeffs`` is always a
    tuple of ints, and loops read the values once through :meth:`tolist`.
    """

    __slots__ = ("n", "_data")

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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PairVector is immutable; cannot set {name!r}")

    def __reduce__(self):
        return PairVector, (self.n, self.coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        data = self._data
        return data if type(data) is tuple else struct.unpack(f"{len(data)}b", data)

    def tolist(self) -> list[int]:
        """The coefficients as a fresh list."""
        return list(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairVector):
            return NotImplemented
        return self.n == other.n and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"PairVector(n={self.n!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def zero(n: int) -> "PairVector":
        return PairVector(n, (0,) * (n * (n - 1) // 2))

    @staticmethod
    def basis(n: int, i: int, j: int) -> "PairVector":
        coeffs = [0] * (n * (n - 1) // 2)
        coeffs[pair_index(n, i, j)] = 1
        return PairVector(n, coeffs)

    @staticmethod
    def from_pairs(n: int, data: Mapping[tuple[int, int], int]) -> "PairVector":
        coeffs = [0] * (n * (n - 1) // 2)
        for (i, j), c in data.items():
            coeffs[pair_index(n, i, j)] = c
        return PairVector(n, coeffs)

    def coefficient(self, i: int, j: int) -> int:
        c = self._data[pair_index(self.n, i, j)]
        return c - 256 if c > 127 and type(self._data) is bytes else c

    def support(self) -> dict[tuple[int, int], int]:
        return {
            p: c for p, c in zip(pairs(self.n), self.tolist()) if c != 0
        }

    def is_zero(self) -> bool:
        return not any(self._data)

    def __add__(self, other: "PairVector") -> "PairVector":
        if not isinstance(other, PairVector):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return PairVector(self.n, [a + b for a, b in zip(self.tolist(), other.tolist())])

    def __sub__(self, other: "PairVector") -> "PairVector":
        if not isinstance(other, PairVector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PairVector":
        return PairVector(self.n, [-a for a in self.tolist()])

    def scaled(self, c: int) -> "PairVector":
        return PairVector(self.n, [c * a for a in self.tolist()])

    def precompose(self, p: Permutation) -> "PairVector":
        """The vector ``w`` with ``w[P] = self[pair_action(p, P)]``."""
        if p.n != self.n:
            raise ValueError("degree mismatch")
        v, off, images = self.tolist(), pair_offsets(self.n), p.images
        out: list[int] = []
        for i, a in enumerate(images):
            oa = off[a]
            out += [v[oa + b] if a < b else v[off[b] + a] for b in images[i + 1:]]
        return PairVector(self.n, out)

    def to_json(self) -> dict[str, int]:
        return {f"{i},{j}": c for (i, j), c in sorted(self.support().items())}

    @staticmethod
    def from_json(n: int, data: Mapping[str, int]) -> "PairVector":
        """Parse ``{"i,j": c, ...}``; keys are two decimal points and values
        must be ints (not bools or floats)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"vector must be an object of \"i,j\": integer entries, got {data!r}")
        parsed: dict[tuple[int, int], int] = {}
        for key, c in data.items():
            match = re.fullmatch(r"(\d+),(\d+)", key) if isinstance(key, str) else None
            if match is None:
                raise ValueError(f"bad pair key {key!r}: expected \"i,j\"")
            if type(c) is not int:
                raise ValueError(f"coefficient of {key!r} must be an integer, got {c!r}")
            parsed[int(match[1]), int(match[2])] = c
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
    off = pair_offsets(n)
    order = list(range(1, n + 1))
    counts = [0] * (n * (n - 1) // 2)
    for e in word.letters:
        k = abs(e)
        a, b = order[k - 1], order[k]
        counts[off[a] + b if a < b else off[b] + a] += 1 if e > 0 else -1
        order[k - 1], order[k] = b, a
    return order, counts


def linking_vector(word: BraidWord) -> PairVector:
    """Abelianized pure-braid class of a pure word.

    >>> linking_vector(BraidWord(3, (2, 1, 1, -2))).support()
    {(1, 3): 1}
    """
    order, counts = crossing_counts(word)
    if order != list(range(1, word.n + 1)):
        raise NotPureError(f"word is not pure: {word}")
    if any(c % 2 for c in counts):
        raise AssertionError("pure word with odd crossing count")
    return PairVector(word.n, [c // 2 for c in counts])


def pure_generator_word(n: int, i: int, j: int) -> BraidWord:
    """The standard representative of ``A[i,j]``: conjugate ``sigma_i^2``
    down from position ``j-1``."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    prefix = list(range(j - 1, i, -1))
    letters = prefix + [i, i] + [-k for k in reversed(prefix)]
    return BraidWord(n, tuple(letters))


def pure_generator_word_lower(n: int, i: int, j: int) -> BraidWord:
    """Equivalent form of ``A[i,j]`` conjugating ``sigma_{j-1}^2`` up from
    position ``i``; equal to :func:`pure_generator_word` in the braid group."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    prefix = [-k for k in range(i, j - 1)]
    letters = prefix + [j - 1, j - 1] + list(range(j - 2, i - 1, -1))
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
