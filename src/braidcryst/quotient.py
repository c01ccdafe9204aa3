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

where the last term is the 2-cocycle ``normalize(L(p) L(q) L(pq)^-1).vec``:
it counts the pairs that ``L(p)`` crosses and ``L(q)`` crosses back.  The
inverse is ``(p^-1, w)`` with ``w[P] = -v[Q] - [p inverts Q]`` for
``Q = sort(p^-1(P))``, and :func:`normalize` reads a word's crossings in one
sweep, touching only the pairs it crosses.  Ground truth is concatenation of
representative words followed by :func:`normalize`; the tests cross-check the
closed forms against it.

Conjugation acts on the lattice through pairs:
``g A[P] g^-1 = A[Q]`` with ``Q = perm(g)^{-1}(P)`` applied pointwise.
:func:`conjugate` has its own closed form, one pass with no product: with
``t = s * p * s^-1``, ``a = s(i)`` and ``b = s(j)``,

    (s, y) * (p, v) * (s, y)^-1 = (t, out),
    out[i,j] = y[i,j] + v[sort(a,b)] - y[sort(t(i),t(j))]
               + [p(a) < p(b)] * ([a > b] - [t(i) > t(j)]).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator, Mapping, Sequence

from .braidword import (
    BraidWord,
    PairVector,
    VerificationError,
    pair_images,
    pair_offsets,
    pairs,
    pure_word,
)
from .permutation import Permutation, Record, conjugating_permutation

#: Returned by :func:`element_order` for elements of infinite order.
INFINITE = math.inf

#: Most bits :func:`power` lets the coefficients of its result take in all
#: (128 MB of integers); a larger power is refused with a ``ValueError``.
POWER_BIT_LIMIT = 2**30


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


class QuotientElement(Record):
    """Normal form ``A^vec * L(perm)``."""

    __slots__ = _fields = ("perm", "vec")
    perm: Permutation
    vec: PairVector

    def __init__(self, perm: Permutation, vec: PairVector) -> None:
        if perm.n != vec.n:
            raise ValueError("degree mismatch between permutation and vector")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "vec", vec)

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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "perm": list(self.perm.images),
            "vec": self.vec.to_json(),
        }

    @staticmethod
    def from_json(data: Mapping) -> "QuotientElement":
        """Parse ``{"n": n, "perm": [...], "vec": {"i,j": c, ...}}`` and no other
        key; ``n`` and every entry must be ints (not bools or floats), ``n >= 2``."""
        if not isinstance(data, Mapping):
            raise ValueError(f"element must be a JSON object, got {data!r}")
        extra = [key for key in data if key not in ("n", "perm", "vec")]
        if extra:
            raise ValueError(f"unknown element key {extra[0]!r}: expected n, perm and vec")
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


def normalize(word: BraidWord) -> QuotientElement:
    """Normal form of a word, from its crossings: a pair crosses ``L(p)``
    once if ``p`` inverts it and not at all otherwise, so the pure part
    counts the remaining crossings twice.  One sweep credits each letter to
    the pair it crosses, and only those pairs are read and written; the
    crossed pairs ``p`` inverts must be all of ``p``'s inversions, counted on
    their own, and every count left even, or ``VerificationError``.

    >>> normalize(BraidWord.from_text(3, "-1 2 -1 2 -1 2")).is_identity()
    True
    """
    n = word.n
    # the pair-sized list first, so a huge n fails fast with MemoryError
    half = [0] * (n * (n - 1) // 2)
    off, order, crossed = pair_offsets(n), list(range(1, n + 1)), {}
    for e in word.letters:
        k = abs(e)
        a, b = order[k - 1], order[k]
        pos = off[a] + b if a < b else off[b] + a
        crossed[pos] = crossed.get(pos, 0) + (1 if e > 0 else -1)
        order[k - 1], order[k] = b, a
    p = Permutation(tuple(order)).inverse()
    basis, images = pairs(n), (0,) + p.images
    credited = odd = 0
    for pos, c in crossed.items():
        i, j = basis[pos]
        f = images[i] > images[j]
        half[pos] = (c - f) >> 1
        credited += f
        odd |= (c - f) & 1
    below, inversions = [], 0  # the images right of the current point, sorted
    for a in reversed(p.images):
        t = bisect_left(below, a)
        inversions += t
        below.insert(t, a)
    if odd or credited != inversions:  # an inverted pair never crossed has count 0
        raise VerificationError("odd crossing count left after removing the lift")
    return QuotientElement(p, PairVector(n, half))


def mul(g: QuotientElement, h: QuotientElement) -> QuotientElement:
    """``g * h`` by the closed-form twisted product, one pass over the pairs."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    p, q = g.perm.images, (0,) + h.perm.images
    off, hv = pair_offsets(g.n), h.vec.coeffs
    moved: list[int] = []
    for i, a in enumerate(p):
        oa, qa = off[a], q[a]
        moved += [hv[oa + b] if a < b else hv[off[b] + a] + (qa < q[b]) for b in p[i + 1:]]
    vec = PairVector(g.n, [x + y for x, y in zip(g.vec.coeffs, moved)])
    return QuotientElement(g.perm * h.perm, vec)


def inverse(g: QuotientElement) -> QuotientElement:
    """``g^-1`` in closed form: ``w[P] = -v[Q] - [p inverts Q]``."""
    q = g.perm.inverse()
    off, v, images = pair_offsets(g.n), g.vec.coeffs, q.images
    w: list[int] = []
    for i, c in enumerate(images):
        oc = off[c]
        w += [-v[oc + d] if c < d else -v[off[d] + c] - 1 for d in images[i + 1:]]
    return QuotientElement(q, PairVector(g.n, w))


def power(g: QuotientElement, m: int) -> QuotientElement:
    """``g^m``.  With ``k = order(perm)``, ``g^k`` is pure and pure elements
    commute, so ``g^m = (g^k)^q * g^r`` for ``q, r = divmod(m, k)``: at most
    ``O(log k)`` products for any ``m``, each still through :func:`mul`, and
    from ``g``: ``m.bit_length() + popcount(m) - 2`` of them for ``0 < m <= k``.
    The nonzero coefficients of ``g^k`` are the pairs of the orbits with a
    nonzero :func:`orbit_sums` sum, so a ``(g^k)^q`` whose coefficients would
    take more than ``POWER_BIT_LIMIT`` bits is refused before any product."""
    if m < 0:
        return power(inverse(g), -m)
    k = g.perm.order()
    if m > k:
        q, r = divmod(m, k)
        moved = sum(size for _, size, s in orbit_sums(g) if s)
        if moved * q.bit_length() > POWER_BIT_LIMIT:
            raise ValueError(f"the power has {moved} nonzero coefficients of about {q.bit_length()} "
                             f"bits, past the {POWER_BIT_LIMIT}-bit limit; refusing")
        return mul(pure(power(g, k).vec.scaled(q)), power(g, r))
    if m == 0:
        return QuotientElement.identity(g.n)
    out = g
    for bit in bin(m)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, g)
    return out


def conjugate(g: QuotientElement, c: QuotientElement) -> QuotientElement:
    """``c * g * c^-1`` in closed form, one pass over the pairs.

    With ``g = (p, v)``, ``c = (s, y)`` and ``t = s * p * s^-1``, the pair
    ``P = (i, j)``, ``a = s(i)``, ``b = s(j)`` gets

        v'[P] = y[P] + v[{a,b}] - y[{t(i),t(j)}]
                + [p(a) < p(b)] * ([a > b] - [t(i) > t(j)]).

    In split coordinates ``u = 2v + f(p)`` (see :func:`orbit_sums`) the
    product has no cocycle, so ``c g c^-1`` has ``u' = x + u o s - x o t``
    with ``x = 2y + f(s)`` and ``o`` the pair action; subtracting ``f(t)``
    and halving leaves the last term.  It is folded into the two gathers:
    ``[a > b and p(a) < p(b)]`` joins ``v`` and
    ``[t(i) > t(j) and p(a) < p(b)]`` joins ``y``.
    """
    if g.n != c.n:
        raise ValueError("degree mismatch")
    t = c.perm * g.perm * c.perm.inverse()
    s_images, t_images, p = c.perm.images, t.images, (0,) + g.perm.images
    off, v, y = pair_offsets(g.n), g.vec.coeffs, c.vec.coeffs
    moved: list[int] = []
    for i, (a, ti) in enumerate(zip(s_images, t_images)):
        oa, ot, pa = off[a], off[ti], p[a]
        moved += [
            (v[oa + b] if a < b else v[off[b] + a] + (pa < p[b]))
            - (y[ot + tj] if ti < tj else y[off[tj] + ti] + (pa < p[b]))
            for b, tj in zip(s_images[i + 1:], t_images[i + 1:])
        ]
    return QuotientElement(t, PairVector(g.n, [x + w for x, w in zip(y, moved)]))


def element_order(g: QuotientElement) -> int | float:
    """Order of ``g``: ``order(perm)`` when every sum of :func:`orbit_sums`
    is 0, infinite from the first nonzero one."""
    return INFINITE if any(s for _, _, s in orbit_sums(g)) else g.perm.order()


def basis_orbits(g: QuotientElement) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of the conjugation action of ``g`` on the pair basis.

    Each orbit is listed following the action direction starting from its
    lexicographically least pair; orbits are sorted by their first pair.  Both
    hold because each walk starts at the least pair not yet seen.
    """
    trail: list[tuple[int, int]] = []
    return tuple(tuple(trail[-size:]) for _, size, _ in orbit_sums(g, trail))


def orbit_sums(g: QuotientElement, trail: list | None = None) -> Iterator[tuple[tuple, int, int]]:
    """Each orbit ``O`` of :func:`basis_orbits`, in order and one at a time,
    as its least pair, its size and its sum
    ``s_O = sum over P in O of (2 * vec[P] + [perm inverts P])``.

    With ``f(p)[i,j] = [p(i) > p(j)]``, ``f(p) + p.f(q) - f(pq)`` is twice
    the cocycle of :func:`mul`, so ``(p, v) -> (p, 2v + f(p))`` maps the
    quotient into the product ``Z^N x| S_n`` with no cocycle.  There the
    ``k``-th power, ``k = order(perm)``, sums ``2v + f(p)`` along each orbit
    ``k/|O|`` times.  Hence ``g^k`` is pure, with ``(k/|O|) * s_O / 2`` on
    each pair of ``O``: ``g`` has finite order exactly when every ``s_O`` is
    0, and a lattice translate ``A^t g`` has ``s_O + 2 * sum over O of t``.

    One lazy pass over pair positions, stepping the two points of each pair
    it visits, with no pair-action table and no member list: a reader that
    stops early pays for the orbits it read.  Pairs are the shared entries of
    :func:`braidword.pairs`; a reader of members passes a list as ``trail``,
    the walk appends each pair it visits, and ``trail[-size:]`` is the orbit.

    >>> [s for _, _, s in orbit_sums(normalize(BraidWord.from_text(3, "1 2")))]
    [2]
    """
    basis, off, v = pairs(g.n), pair_offsets(g.n), g.vec.coeffs
    images, back = (0,) + g.perm.images, (0,) + g.perm.inverse().images
    seen = bytearray(len(basis))
    for start in range(len(basis)):
        if seen[start]:
            continue
        i, j = least = basis[start]
        k, size, s = start, 0, 0
        while True:  # the pair action permutes the pairs, so the walk comes back to start
            seen[k] = 1
            if trail is not None:
                trail.append(basis[k])
            size += 1
            s += 2 * v[k] + (images[i] > images[j])
            i, j = back[i], back[j]
            if i > j:
                i, j = j, i
            k = off[i] + j
            if k == start:
                break
        yield least, size, s


def _theta_walk(
    sources: Sequence[QuotientElement], targets: Sequence[QuotientElement]
) -> PairVector | None:
    """A vector ``theta`` with ``A^theta s A^-theta == t`` for each source
    ``s`` and its target ``t`` (one permutation), or ``None`` if none exists.

    Conjugating by ``A^theta`` adds ``theta[P] - theta[perm(s)(P)]`` to each
    coefficient, so ``theta`` is walked breadth first over each orbit of the
    source permutations on pairs, from 0 at the orbit's least pair; a pair
    reached twice with different values admits no solution.
    """
    moves = [(pair_images(s.perm), (t.vec - s.vec).coeffs) for s, t in zip(sources, targets)]
    theta: list = [None] * len(moves[0][1])
    for start in range(len(theta)):
        if theta[start] is not None:
            continue
        theta[start], queue = 0, [start]
        for q in queue:
            for images, d in moves:
                r, value = images[q], theta[q] - d[q]
                if theta[r] is None:
                    theta[r] = value
                    queue.append(r)
                elif theta[r] != value:
                    return None
    return PairVector(sources[0].n, theta)


def subgroup_conjugator(
    sources: Sequence[QuotientElement], targets: Sequence[QuotientElement]
) -> QuotientElement | None:
    """An element ``c`` with ``c s c^-1 == t`` for each source ``s`` and its
    target ``t``, or ``None`` when none was found.

    ``c`` is ``A^theta rho``: ``rho`` is the lift, with zero vector, of the
    least permutation :func:`permutation.conjugating_permutation` finds for
    the permutations, and ``theta`` comes from a breadth-first walk over the
    pair orbits of the conjugated sources.  ``c`` is checked in the engine
    (``VerificationError`` unless every conjugation holds).  ``None`` proves
    the tuples are not conjugate only when the sources generate a finite
    group: then ``H^1(H, Z^N) = 0`` lets any conjugating permutation be
    completed, while for an infinite group another permutation might succeed.

    >>> g = QuotientElement(Permutation.from_text(3, "(1,2,3)"), PairVector.zero(3))
    >>> str(subgroup_conjugator((g,), (conjugate(g, pure(PairVector.basis(3, 1, 3))),)))
    '() | {1,3}:1'
    >>> h = conjugate(g, normalize(BraidWord.from_text(3, "1")))
    >>> c = subgroup_conjugator((g,), (h,))
    >>> str(c), conjugate(g, c) == h
    ('(2,3) | {2,3}:-1', True)
    """
    s = conjugating_permutation([g.perm for g in sources], [h.perm for h in targets])
    if s is None:
        return None
    rho = QuotientElement(s, PairVector.zero(s.n))
    theta = _theta_walk([conjugate(g, rho) for g in sources], targets)
    if theta is None:
        return None
    c = mul(pure(theta), rho)
    if any(conjugate(g, c) != h for g, h in zip(sources, targets)):
        raise VerificationError("conjugator does not carry the sources onto the targets")
    return c


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
