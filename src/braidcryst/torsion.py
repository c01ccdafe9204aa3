"""Construction and decision of torsion in the quotient.

The quotient contains an element of order ``k`` for every odd ``k >= 3``:
the block element ``torsion_block(r, k, n)`` permutes strands
``r+1, ..., r+k`` cyclically and is built from half positive, half negative
letters so that its ``k``-th power is trivial, not the full twist.  Products
of blocks over disjoint strand intervals commute and realize every odd
least-common-multiple order.

``torsion_witness`` decides, for a permutation ``p``, whether some lattice
translate of the canonical lift has finite order, and returns the translate
when it exists:  writing ``t`` for the vector of ``L(p)^m`` (``m`` the order
of ``p``), a translate ``A^N L(p)`` has order ``m`` exactly when each orbit
of the pair action, of size ``q``, satisfies ``(m/q) * orbit_sum(N) = -t``
on that orbit; integrality forces ``(m/q) | t`` there.  The witness exists
exactly for odd ``m`` (no even torsion exists in the quotient), which the
tests check exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braidword import BraidWord, PairVector
from .permutation import Permutation
from .quotient import (
    QuotientElement,
    basis_orbits,
    mul,
    normalize,
    power,
    pure,
)


@dataclass(frozen=True)
class BlockSpec:
    """Ascending odd block lengths ``k1 <= ... <= ks``, each >= 3, fitting in n."""

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        for k in self.blocks:
            if k < 3 or k % 2 == 0:
                raise ValueError(f"block length {k} is not an odd integer >= 3")
        if tuple(sorted(self.blocks)) != self.blocks:
            raise ValueError("blocks must be sorted ascending")
        if sum(self.blocks) > self.n:
            raise ValueError("blocks do not fit in the strand count")

    @staticmethod
    def from_text(n: int, text: str) -> "BlockSpec":
        text = text.strip()
        blocks = tuple(int(tok) for tok in text.split(",")) if text else ()
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

    def target_permutation(self) -> Permutation:
        """Consecutive ascending cycles, one per block."""
        cycles = [
            tuple(range(r + 1, r + k + 1))
            for r, k in zip(self.offsets(), self.blocks)
        ]
        return Permutation.from_cycles(self.n, cycles)

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
    """Product of the block elements; order = lcm of the block lengths."""
    return normalize(torsion_element_word(spec))


def abelian_realization(spec: BlockSpec) -> list[QuotientElement]:
    """Commuting elements of orders ``k1, ..., ks`` generating a finite
    abelian subgroup of that isomorphism type."""
    return [
        torsion_block(r, k, spec.n) for r, k in zip(spec.offsets(), spec.blocks)
    ]


def is_torsion_offset(spec: BlockSpec, vec: PairVector) -> bool:
    """Does ``A^vec * torsion_element(spec)`` still have the full order?

    Holds exactly when ``vec`` sums to zero over every conjugation orbit of
    the block element and vanishes on the pairs it fixes.
    """
    if vec.n != spec.n:
        raise ValueError("degree mismatch")
    for orbit in basis_orbits(torsion_element(spec)):
        s = sum(vec.coefficient(i, j) for (i, j) in orbit)
        if len(orbit) == 1:
            if vec.coefficient(*orbit[0]) != 0:
                return False
        elif s != 0:
            return False
    return True


def cyclic_torsion_element(n: int) -> QuotientElement:
    """An order-``n`` element with full-cycle permutation (``n`` odd >= 3):
    translate the positive full-cycle lift by -1 on the first pair of each
    of its pair orbits."""
    if n < 3 or n % 2 == 0:
        raise ValueError("a full-cycle torsion element needs odd n >= 3")
    g = block_cycle(0, n, n)
    offset = {(1, 1 + i): -1 for i in range(1, (n - 1) // 2 + 1)}
    return mul(pure(PairVector.from_pairs(n, offset)), g)


def torsion_witness(p: Permutation) -> PairVector | None:
    """A vector ``N`` such that ``A^N L(p)`` has order = order(p), if any.

    Returns ``None`` when no translate of ``L(p)`` has finite order, which
    happens exactly for permutations of even order.
    """
    if p.is_identity():
        raise ValueError("the identity permutation needs no witness")
    m = p.order()
    lift = QuotientElement(p, PairVector.zero(p.n))
    t = power(lift, m).vec
    witness: dict[tuple[int, int], int] = {}
    for orbit in basis_orbits(lift):
        q = len(orbit)
        t_val = t.coefficient(*orbit[0])
        share = m // q
        if t_val % share != 0:
            return None
        if t_val:
            witness[orbit[0]] = -(t_val // share)
    N = PairVector.from_pairs(p.n, witness)
    assert power(mul(pure(N), lift), m).is_identity()
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
