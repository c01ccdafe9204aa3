"""Word-built oracles for the closed-form group law.

The engine multiplies, inverts and normalizes by closed forms.  These helpers
rebuild the same answers the long way, from lift words and
``linking_vector``, under either of two reduced positive lifts:
``canonical_lift`` (scan left to right) and ``reverse_scan_lift`` (scan right
to left).  By Matsumoto's theorem both give the same braid, so every route
must agree.
"""

from braidcryst.braidword import BraidWord, PairVector, linking_vector
from braidcryst.permutation import Permutation
from braidcryst.quotient import QuotientElement, canonical_lift, mul


def reverse_scan_lift(p: Permutation) -> BraidWord:
    """Positive bubble-sort lift scanning positions right to left.  Same
    length and permutation as ``canonical_lift``, generally a different word."""
    order = list(range(1, p.n + 1))
    letters: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for pos in range(p.n - 1, 0, -1):
            if p(order[pos - 1]) > p(order[pos]):
                order[pos - 1], order[pos] = order[pos], order[pos - 1]
                letters.append(pos)
                swapped = True
    return BraidWord(p.n, tuple(letters))


LIFTS = (canonical_lift, reverse_scan_lift)


def word_cocycle(p: Permutation, q: Permutation, lift=canonical_lift) -> PairVector:
    """``linking_vector(L(p) L(q) L(pq)^-1)``."""
    return linking_vector(lift(p) * lift(q) * lift(p * q).inverse())


def closed_cocycle(p: Permutation, q: Permutation) -> PairVector:
    """The engine's cocycle: the product of the two bare lifts."""
    zero = PairVector.zero(p.n)
    return mul(QuotientElement(p, zero), QuotientElement(q, zero)).vec


def word_normalize(w: BraidWord, lift=canonical_lift) -> QuotientElement:
    """Normal form as ``linking_vector(w * L(p)^-1)``."""
    p = w.permutation()
    return QuotientElement(p, linking_vector(w * lift(p).inverse()))


def word_mul(g: QuotientElement, h: QuotientElement, lift=canonical_lift) -> QuotientElement:
    """Twisted product with the word-built cocycle."""
    vec = g.vec + h.vec.precompose(g.perm) + word_cocycle(g.perm, h.perm, lift)
    return QuotientElement(g.perm * h.perm, vec)


def word_inverse(g: QuotientElement, lift=canonical_lift) -> QuotientElement:
    q = g.perm.inverse()
    w = (-g.vec) - word_cocycle(g.perm, q, lift)
    return QuotientElement(q, w.precompose(q))
