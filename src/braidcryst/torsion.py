"""Construction and decision of torsion in the quotient.

The quotient contains an element of order ``k`` for every odd ``k >= 3``:
the block element ``torsion_block(r, k, n)`` permutes strands
``r+1, ..., r+k`` cyclically and is built from half positive, half negative
letters so that its ``k``-th power is trivial, not the full twist.  Products
of blocks over disjoint strand intervals commute and realize every odd
least-common-multiple order.

``torsion_witness`` decides, for a permutation ``p``, whether some lattice
translate of the canonical lift has finite order, and returns the translate
when it exists: by :func:`quotient.orbit_sums`, one exists exactly when
every orbit sum of the lift is even, and then ``-s_O/2`` on each orbit's
least pair is one.  That happens exactly for odd-order ``p`` (no even
torsion exists in the quotient), which the tests check exhaustively.
"""

from __future__ import annotations

import math

from .braidword import BraidWord, PairVector, VerificationError
from .permutation import Permutation, Record, parse_int
from .quotient import QuotientElement, mul, normalize, orbit_sums, power, pure


class BlockSpec(Record):
    """Ascending odd block lengths ``k1 <= ... <= ks``, each >= 3, fitting in n."""

    __slots__ = _fields = ("n", "blocks")
    n: int
    blocks: tuple[int, ...]

    def __init__(self, n: int, blocks: tuple[int, ...]) -> None:
        for k in blocks:
            if k < 3 or k % 2 == 0:
                raise ValueError(f"block length {k} is not an odd integer >= 3")
        if tuple(sorted(blocks)) != blocks:
            raise ValueError("blocks must be sorted ascending")
        if sum(blocks) > n:
            raise ValueError("blocks do not fit in the strand count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def from_text(n: int, text: str) -> "BlockSpec":
        text = text.strip()
        blocks = tuple(parse_int(tok.strip()) for tok in text.split(",")) if text else ()
        return BlockSpec(n, blocks)

    def offsets(self) -> tuple[int, ...]:
        """Starting offset of each block: 0, k1, k1+k2, ..."""
        out, acc = [], 0
        for k in self.blocks:
            out.append(acc)
            acc += k
        return tuple(out)

    def span(self) -> int:
        return sum(self.blocks)

    def order(self) -> int:
        return math.lcm(1, *self.blocks)

    def __str__(self) -> str:
        return ",".join(map(str, self.blocks))


def block_cycle_word(r: int, k: int, n: int) -> BraidWord:
    """``sigma_{r+1} ... sigma_{r+k-1}``, the positive lift of the ascending
    cycle on strands ``r+1 .. r+k``."""
    if k < 2 or r < 0 or r + k > n:
        raise ValueError(f"block (r={r}, k={k}) does not fit in n={n}")
    return BraidWord(n, tuple(range(r + 1, r + k)))


def block_cycle(r: int, k: int, n: int) -> QuotientElement:
    return normalize(block_cycle_word(r, k, n))


def torsion_block_word(r: int, k: int, n: int) -> BraidWord:
    """Descending positive letters down to the block middle, then descending
    negative letters: the standard order-``k`` block word."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"block length {k} is not an odd integer >= 3")
    if r < 0 or r + k > n:
        raise ValueError(f"block (r={r}, k={k}) does not fit in n={n}")
    positives = list(range(r + k - 1, r + (k + 1) // 2 - 1, -1))
    negatives = [-p for p in range(r + (k - 1) // 2, r, -1)]
    return BraidWord(n, tuple(positives + negatives))


def torsion_block(r: int, k: int, n: int) -> QuotientElement:
    return normalize(torsion_block_word(r, k, n))


def torsion_element_word(spec: BlockSpec) -> BraidWord:
    word = BraidWord(spec.n, ())
    for r, k in zip(spec.offsets(), spec.blocks):
        word = word * torsion_block_word(r, k, spec.n)
    return word


def torsion_element(spec: BlockSpec) -> QuotientElement:
    """Product of the block elements; order = lcm of the block lengths,
    normalized from :func:`torsion_element_word` on each call."""
    return normalize(torsion_element_word(spec))


def abelian_realization(spec: BlockSpec) -> list[QuotientElement]:
    """Commuting elements of orders ``k1, ..., ks`` generating a finite
    abelian subgroup of that isomorphism type."""
    return [
        torsion_block(r, k, spec.n) for r, k in zip(spec.offsets(), spec.blocks)
    ]


def cyclic_torsion_element(n: int) -> QuotientElement:
    """An order-``n`` element with full-cycle permutation (``n`` odd >= 3):
    the positive full-cycle lift translated by its :func:`torsion_witness`."""
    if n < 3 or n % 2 == 0:
        raise ValueError("a full-cycle torsion element needs odd n >= 3")
    p = block_cycle(0, n, n).perm
    return QuotientElement(p, torsion_witness(p))


def torsion_witness(p: Permutation) -> PairVector | None:
    """A vector ``N`` such that ``A^N L(p)`` has order = order(p), if any.

    Returns ``None`` when no translate of ``L(p)`` has finite order, which
    happens exactly for permutations of even order.
    """
    if p.is_identity():
        raise ValueError("the identity permutation needs no witness")
    m = p.order()
    lift = QuotientElement(p, PairVector.zero(p.n))
    witness: dict[tuple[int, int], int] = {}
    for least, _, s in orbit_sums(lift):
        if s % 2:
            return None
        if s:
            witness[least] = -s // 2
    N = PairVector.from_pairs(p.n, witness)
    if not power(mul(pure(N), lift), m).is_identity():
        raise VerificationError(f"witness {N} does not give an element of order {m}")
    return N


def finite_orders(n: int) -> list[int]:
    """All orders of torsion elements on ``n`` strands: lcms of odd block
    multisets fitting in ``n``, plus the trivial order 1."""
    out = {1}
    for spec in iter_block_specs(n):
        out.add(spec.order())
    return sorted(out)


def iter_block_specs(n: int):
    """All nonempty BlockSpecs on ``n`` strands, ascending blocks."""

    def rec(budget: int, minimum: int, prefix: tuple[int, ...]):
        for k in range(minimum, budget + 1, 2):
            yield prefix + (k,)
            yield from rec(budget - k, k, prefix + (k,))

    for blocks in rec(n, 3, ()):
        yield BlockSpec(n, blocks)
