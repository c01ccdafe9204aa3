"""Normal forms in the quotient of the braid group by the commutator
subgroup of the pure braid group.

Every class has a unique expression ``A^v * L(p)`` where ``p`` is the image
permutation, ``v`` the abelianized pure part, and ``L(p)`` a reduced positive
lift of ``p`` (:func:`canonical_lift` gives one).  By Matsumoto's theorem all
reduced positive words of a permutation are the same braid, so the normal form
does not depend on which lift is chosen.

The group law is a twisted product over pairs ``i < j``; with
``(p*q)(i) = q(p(i))``,

    (p, g) * (q, h) = (p*q, out),
    out[i,j] = g[i,j] + h[sort(p(i),p(j))] + [p(i) > p(j) and q(p(i)) < q(p(j))],

where the last term is the 2-cocycle ``linking_vector(L(p) L(q) L(pq)^-1)``:
it counts the pairs that ``L(p)`` crosses and ``L(q)`` crosses back.  The
inverse is ``(p^-1, w)`` with ``w[P] = -v[Q] - [p inverts Q]`` for
``Q = sort(p^-1(P))``, and :func:`normalize` reads a word's crossings in one
sweep.  Ground truth is concatenation of representative words followed by
:func:`normalize`; the tests cross-check the closed forms against it.

Conjugation acts on the lattice through pairs:
``g A[P] g^-1 = A[Q]`` with ``Q = perm(g)^{-1}(P)`` applied pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .braidword import BraidWord, PairVector, crossing_counts, pair_offsets, pairs, pure_word
from .permutation import Permutation

#: Returned by :func:`element_order` for elements of infinite order.
INFINITE = math.inf


def canonical_lift(p: Permutation) -> BraidWord:
    """Positive bubble-sort lift of ``p``: scan positions left to right and
    swap whenever the strands at adjacent positions are inverted with respect
    to their target positions.

    >>> str(canonical_lift(Permutation.from_text(3, "(1,3,2)")))
    '1 2'
    """
    order = list(range(1, p.n + 1))
    letters: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for pos in range(1, p.n):
            if p(order[pos - 1]) > p(order[pos]):
                order[pos - 1], order[pos] = order[pos], order[pos - 1]
                letters.append(pos)
                swapped = True
    return BraidWord(p.n, tuple(letters))


@dataclass(frozen=True, slots=True)
class QuotientElement:
    """Normal form ``A^vec * L(perm)``."""

    perm: Permutation
    vec: PairVector

    def __post_init__(self) -> None:
        if self.perm.n != self.vec.n:
            raise ValueError("degree mismatch between permutation and vector")

    @property
    def n(self) -> int:
        return self.perm.n

    @staticmethod
    def identity(n: int) -> "QuotientElement":
        return QuotientElement(Permutation.identity(n), PairVector.zero(n))

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.vec.is_zero()

    def is_pure(self) -> bool:
        return self.perm.is_identity()

    # Operator sugar.
    def __mul__(self, other: "QuotientElement") -> "QuotientElement":
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return mul(self, other)

    def inverse(self) -> "QuotientElement":
        return inverse(self)

    def __pow__(self, m: int) -> "QuotientElement":
        return power(self, m)

    def conj(self, c: "QuotientElement") -> "QuotientElement":
        return conjugate(self, c)

    def order(self) -> int | float:
        return element_order(self)

    def embed(self, m: int) -> "QuotientElement":
        return embed(self, m)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "perm": list(self.perm.images),
            "vec": self.vec.to_json(),
        }

    @staticmethod
    def from_json(data: Mapping) -> "QuotientElement":
        """Parse ``{"n": n, "perm": [...], "vec": {"i,j": c, ...}}``; ``n``
        and every entry must be ints (not bools or floats), ``n >= 2``."""
        if not isinstance(data, Mapping):
            raise ValueError(f"element must be a JSON object, got {data!r}")
        n, images = data.get("n"), data.get("perm")
        if type(n) is not int or n < 2:
            raise ValueError(f"element n must be an integer >= 2, got {n!r}")
        if not isinstance(images, (list, tuple)) or any(type(i) is not int for i in images):
            raise ValueError(f"element perm must be a list of integers, got {images!r}")
        if len(images) != n:
            raise ValueError("perm length does not match n")
        vec = PairVector.from_json(n, data.get("vec", {}))
        return QuotientElement(Permutation(tuple(images)), vec)

    def __str__(self) -> str:
        return f"{self.perm} | {self.vec}"


def pure(vec: PairVector) -> QuotientElement:
    """The lattice vector ``vec`` as a quotient element."""
    return QuotientElement(Permutation.identity(vec.n), vec)


def basis_element(n: int, i: int, j: int) -> QuotientElement:
    return pure(PairVector.basis(n, i, j))


def normalize(word: BraidWord) -> QuotientElement:
    """Normal form of a word, from its crossings: a pair crosses ``L(p)``
    once if ``p`` inverts it and not at all otherwise, so the pure part
    counts the remaining crossings twice.

    >>> normalize(BraidWord.from_text(3, "-1 2 -1 2 -1 2")).is_identity()
    True
    """
    order, counts = crossing_counts(word)
    p = Permutation(tuple(order)).inverse()
    images = p.images
    inverted = [a > b for i, a in enumerate(images) for b in images[i + 1:]]
    twice = [c - f for c, f in zip(counts, inverted)]
    half = [c >> 1 for c in twice]
    if sum(twice) != 2 * sum(half):  # floor halving drops 1 per odd entry
        raise AssertionError("odd crossing count left after removing the lift")
    return QuotientElement(p, PairVector(word.n, half))


def mul(g: QuotientElement, h: QuotientElement) -> QuotientElement:
    """``g * h`` by the closed-form twisted product, one pass over the pairs."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    p, q = g.perm.images, (0,) + h.perm.images
    off, hv = pair_offsets(g.n), h.vec.tolist()
    moved: list[int] = []
    for i, a in enumerate(p):
        oa, qa = off[a], q[a]
        moved += [hv[oa + b] if a < b else hv[off[b] + a] + (qa < q[b]) for b in p[i + 1:]]
    vec = PairVector(g.n, [x + y for x, y in zip(g.vec.tolist(), moved)])
    return QuotientElement(g.perm * h.perm, vec)


def inverse(g: QuotientElement) -> QuotientElement:
    """``g^-1`` in closed form: ``w[P] = -v[Q] - [p inverts Q]``."""
    q = g.perm.inverse()
    off, v, images = pair_offsets(g.n), g.vec.tolist(), q.images
    w: list[int] = []
    for i, c in enumerate(images):
        oc = off[c]
        w += [-v[oc + d] if c < d else -v[off[d] + c] - 1 for d in images[i + 1:]]
    return QuotientElement(q, PairVector(g.n, w))


def power(g: QuotientElement, m: int) -> QuotientElement:
    if m < 0:
        return power(inverse(g), -m)
    out = QuotientElement.identity(g.n)
    base = g
    while m:
        if m & 1:
            out = mul(out, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return out


def conjugate(g: QuotientElement, c: QuotientElement) -> QuotientElement:
    """``c * g * c^-1``."""
    return mul(mul(c, g), inverse(c))


def element_order(g: QuotientElement) -> int | float:
    """Order of ``g``; finite exactly when ``g^order(perm)`` has zero vector."""
    k = g.perm.order()
    return k if power(g, k).vec.is_zero() else INFINITE


def action_on_basis(g: QuotientElement, pair: tuple[int, int]) -> tuple[int, int]:
    """The pair ``Q`` with ``g A[pair] g^-1 = A[Q]``."""
    return g.perm.inverse().pair_action(pair)


def basis_orbits(g: QuotientElement) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of the conjugation action of ``g`` on the pair basis.

    Each orbit is listed following the action direction starting from its
    lexicographically least pair; orbits are sorted by their first pair.
    """
    act = g.perm.inverse().pair_action
    seen: set[tuple[int, int]] = set()
    orbits: list[tuple[tuple[int, int], ...]] = []
    for start in pairs(g.n):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        q = act(start)
        while q != start:
            orbit.append(q)
            seen.add(q)
            q = act(q)
        k = orbit.index(min(orbit))
        orbits.append(tuple(orbit[k:] + orbit[:k]))
    return tuple(sorted(orbits, key=lambda o: o[0]))


def to_word(g: QuotientElement) -> BraidWord:
    """A representative word: pure part in lex pair order, then the lift."""
    return pure_word(g.vec) * canonical_lift(g.perm)


def embed(g: QuotientElement, m: int) -> QuotientElement:
    """Image under the standard inclusion on the first ``n`` strands.

    Normal forms include coordinatewise: the permutation gains fixed points
    and pair coefficients are carried over unchanged.
    """
    if m < g.n:
        raise ValueError("cannot embed into fewer strands")
    perm = Permutation(g.perm.images + tuple(range(g.n + 1, m + 1)))
    vec = PairVector.from_pairs(m, dict(g.vec.support()))
    return QuotientElement(perm, vec)
