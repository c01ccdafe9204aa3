"""Constructive conjugacy for torsion elements.

Two finite-order elements are conjugate exactly when their permutations have
the same cycle type, and a conjugator is computable: first the lift of a
permutation carrying one permutation onto the other, then a lattice vector
over the pair orbits, which exists because ``H^1(H, Z^N) = 0`` for finite
``H``.  :func:`quotient.subgroup_conjugator` does both steps.
"""

from __future__ import annotations

import itertools
import math

from .braidword import VerificationError
from .quotient import INFINITE, QuotientElement, element_order, subgroup_conjugator
from .torsion import BlockSpec, torsion_element

#: Largest strand count times block-length count :func:`count_conjugacy_classes`
#: tabulates (about 1 s and 90 MB at k = 105).
CLASS_COUNT_LIMIT = 10**6


class InfiniteOrderError(ValueError):
    """Raised when a torsion-only routine receives an infinite-order element."""


def conjugator_to_standard(g: QuotientElement) -> QuotientElement:
    """An element ``c`` with ``c g c^-1 = torsion_element(spec)``, ``spec``
    the ascending blocks of the cycle type of ``g``: the
    :func:`quotient.subgroup_conjugator` between these two finite-order
    elements (``InfiniteOrderError`` if ``g`` has infinite order)."""
    if element_order(g) is INFINITE:
        raise InfiniteOrderError("element has infinite order")
    spec = BlockSpec(g.n, tuple(sorted(len(c) for c in g.perm.cycles())))
    c = subgroup_conjugator((g,), (torsion_element(spec),))
    if c is None:
        raise VerificationError("no conjugator reaches the block torsion element")
    return c


def are_conjugate(
    g: QuotientElement, h: QuotientElement
) -> tuple[bool | None, QuotientElement | None]:
    """Decide conjugacy; ``(True, witness)`` with ``witness g witness^-1 = h``,
    ``(False, None)``, or ``(None, None)`` when undecided (both of infinite
    order with matching cycle types).  With one cycle type, finite orders
    are equal, and the witness is :func:`quotient.subgroup_conjugator` from
    ``g`` to ``h``."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    if g == h:
        return True, QuotientElement.identity(g.n)
    if g.perm.cycle_type() != h.perm.cycle_type():
        return False, None
    infinite = element_order(g) is INFINITE, element_order(h) is INFINITE
    if any(infinite):  # undecided if both are infinite, else orders differ
        return (None if all(infinite) else False), None
    witness = subgroup_conjugator((g,), (h,))
    if witness is None:
        raise VerificationError("no conjugator carries g onto h")
    return True, witness


def _odd_divisors(k: int, limit: int) -> list[int]:
    """The odd divisors ``3 <= d <= limit`` of ``k``, ascending.

    ``k`` is reduced once modulo the product of each batch of 64 odd primes
    up to ``limit``, so each prime is tested on a small remainder however
    long ``k`` is; each divisor is then built once from the prime powers
    found, taking primes in ascending order.
    """
    sieve = bytearray([1]) * (limit + 1)
    for q in range(3, math.isqrt(limit) + 1, 2):
        if sieve[q]:
            sieve[q * q::2 * q] = bytes(len(range(q * q, limit + 1, 2 * q)))
    primes = list(itertools.compress(range(3, limit + 1, 2), sieve[3::2]))
    powers: list[list[int]] = []  # for each prime dividing k, its powers <= limit dividing k
    for start in range(0, len(primes), 64):
        batch = primes[start:start + 64]
        r = k % math.prod(batch)
        for q in batch:
            if r % q == 0:
                qs = [q]
                while qs[-1] * q <= limit and k % (qs[-1] * q) == 0:
                    qs.append(qs[-1] * q)
                powers.append(qs)
    divisors = [(1, 0)]  # (d, index of the least prime d may still take)
    for d, first in divisors:
        for j in range(first, len(powers)):
            if d * powers[j][0] > limit:
                break
            for m in powers[j]:
                if d * m <= limit:
                    divisors.append((d * m, j + 1))
    return sorted(d for d, _ in divisors[1:])


def count_conjugacy_classes(n: int, k: int) -> int:
    """Number of conjugacy classes of order-``k`` elements on ``n`` strands:
    multisets of odd block lengths >= 3 with sum <= n and lcm = k.

    Only odd divisors of ``k`` can be blocks, so the multisets are counted by
    a knapsack over (sum, lcm) with those divisors as items, not one by one;
    a ``ValueError`` refuses ``n`` times their count past ``CLASS_COUNT_LIMIT``.
    A power of two has none.  Past ``min(n, k) = 2 * CLASS_COUNT_LIMIT`` even
    one block length puts ``n`` times their count past the limit, so such
    input is refused before any divisor is looked for.
    """
    if k & (k - 1) == 0:
        return int(k == 1)
    if min(n, k) > 2 * CLASS_COUNT_LIMIT:
        raise ValueError(f"n={n} and k={k} are both past {2 * CLASS_COUNT_LIMIT}; refusing")
    items = _odd_divisors(k, min(n, k))
    if not items:
        return 0
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
