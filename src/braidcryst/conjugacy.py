"""Constructive conjugacy for torsion elements.

Two finite-order elements are conjugate exactly when their permutations have
the same cycle type, and a conjugator is computable: every finite-order
element is conjugate to the block torsion element of its cycle type, first by
the lift of a permutation matching cycles to consecutive blocks, then by the
lattice vector :func:`quotient.pure_conjugator` walks over the pair orbits.
"""

from __future__ import annotations

import math

from .braidword import PairVector, VerificationError
from .permutation import Permutation
from .quotient import (
    INFINITE,
    QuotientElement,
    conjugate,
    element_order,
    inverse,
    mul,
    pure,
    pure_conjugator,
)
from .torsion import BlockSpec, torsion_element

#: Largest strand count times block-length count :func:`count_conjugacy_classes`
#: tabulates (about 1 s and 90 MB at k = 105).
CLASS_COUNT_LIMIT = 10**6


class InfiniteOrderError(ValueError):
    """Raised when a torsion-only routine receives an infinite-order element."""


def standard_form(g: QuotientElement) -> tuple[QuotientElement, BlockSpec]:
    """A conjugator ``c`` and block data with ``perm(c g c^-1)`` equal to the
    consecutive ascending cycles of the cycle type of ``g``
    (``InfiniteOrderError`` if ``g`` has infinite order).

    ``c`` is the lift of the permutation sending each target block, in order
    of (length, least moved point), onto the matching cycle of ``perm(g)``
    traversed from its least point; leftover points map ascending to the
    fixed points of ``perm(g)``.
    """
    if element_order(g) is INFINITE:
        raise InfiniteOrderError("element has infinite order")
    cycles = sorted(g.perm.cycles(), key=lambda c: (len(c), c[0]))
    spec = BlockSpec(g.n, tuple(sorted(len(c) for c in cycles)))
    images: list[int] = []
    for cycle in cycles:
        images.extend(cycle)
    images.extend(g.perm.fixed_points())
    u = Permutation(tuple(images))
    if u * g.perm * u.inverse() != spec.target_permutation():
        raise VerificationError("conjugator does not reach the block permutation")
    return QuotientElement(u, PairVector.zero(g.n)), spec


def conjugator_to_standard(g: QuotientElement) -> QuotientElement:
    """An element ``c`` with ``c g c^-1 = torsion_element(spec(g))``.

    After standardizing the permutation, the remaining pure difference is
    removed by :func:`quotient.pure_conjugator`; a solution exists because a
    finite-order element sums to zero over each pair orbit of its
    permutation, as the block element does.
    """
    c0, spec = standard_form(g)
    delta = torsion_element(spec)
    theta = pure_conjugator((conjugate(g, c0),), (delta,))
    if theta is None:
        raise VerificationError("no lattice vector reaches the block torsion element")
    c = mul(pure(theta), c0)
    if conjugate(g, c) != delta:
        raise VerificationError("conjugator does not reach the block torsion element")
    return c


def _standardized(g: QuotientElement) -> QuotientElement | None:
    """:func:`conjugator_to_standard`, or ``None`` for infinite order."""
    try:
        return conjugator_to_standard(g)
    except InfiniteOrderError:
        return None


def are_conjugate(
    g: QuotientElement, h: QuotientElement
) -> tuple[bool | None, QuotientElement | None]:
    """Decide conjugacy; ``(True, witness)`` with ``witness g witness^-1 = h``,
    ``(False, None)``, or ``(None, None)`` when undecided (both of infinite
    order with matching cycle types).  Standardizing each input once is also
    the finiteness test: with one cycle type, finite orders are equal."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    if g == h:
        return True, QuotientElement.identity(g.n)
    if g.perm.cycle_type() != h.perm.cycle_type():
        return False, None
    cg, ch = _standardized(g), _standardized(h)
    if cg is None or ch is None:  # undecided if both are infinite, else orders differ
        return (None if cg is ch else False), None
    witness = mul(inverse(ch), cg)
    if conjugate(g, witness) != h:
        raise VerificationError("witness does not conjugate g onto h")
    return True, witness


def count_conjugacy_classes(n: int, k: int) -> int:
    """Number of conjugacy classes of order-``k`` elements on ``n`` strands:
    multisets of odd block lengths >= 3 with sum <= n and lcm = k.

    Only odd divisors of ``k`` can be blocks, so the multisets are counted by
    a knapsack over (sum, lcm) with those divisors as items, not one by one;
    a ``ValueError`` refuses ``n`` times their count past ``CLASS_COUNT_LIMIT``.
    """
    items = [d for d in range(3, min(n, k) + 1, 2) if k % d == 0]
    if not items:
        return int(k == 1)
    if n * len(items) > CLASS_COUNT_LIMIT:
        raise ValueError(f"n={n} times {len(items)} block lengths is past {CLASS_COUNT_LIMIT}; refusing")
    ways: list[dict[int, int]] = [{} for _ in range(n + 1)]  # sum -> lcm -> count
    ways[0][1] = 1
    for d in items:
        for total in range(n - d + 1):
            grown = ways[total + d]
            for lcm, count in ways[total].items():
                key = math.lcm(lcm, d)
                grown[key] = grown.get(key, 0) + count
    return sum(by_lcm.get(k, 0) for by_lcm in ways)
