"""Constructive conjugacy for torsion elements.

Two finite-order elements are conjugate exactly when their permutations have
the same cycle type, and a conjugator is computable: every finite-order
element is conjugate to the block torsion element of its cycle type, first by
the lift of a permutation matching cycles to consecutive blocks, then by a
lattice vector solved orbit by orbit from a telescoping linear system.
"""

from __future__ import annotations

from .braidword import PairVector, VerificationError
from .permutation import Permutation
from .quotient import (
    INFINITE,
    QuotientElement,
    basis_orbits,
    conjugate,
    element_order,
    inverse,
    mul,
    pure,
)
from .torsion import BlockSpec, iter_block_specs, torsion_element


class InfiniteOrderError(ValueError):
    """Raised when a torsion-only routine receives an infinite-order element."""


def standard_form(g: QuotientElement) -> tuple[QuotientElement, BlockSpec]:
    """A conjugator ``c`` and block data with ``perm(c g c^-1)`` equal to the
    consecutive ascending cycles of the cycle type of ``g``.

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
    c = QuotientElement(u, PairVector.zero(g.n))
    if conjugate(g, c).perm != spec.target_permutation():
        raise VerificationError("conjugator does not reach the block permutation")
    return c, spec


def conjugator_to_standard(g: QuotientElement) -> QuotientElement:
    """An element ``c`` with ``c g c^-1 = torsion_element(spec(g))``.

    After standardizing the permutation, the remaining pure difference ``A``
    is removed by a lattice vector: on each action orbit ``(w_1, ..., w_q)``
    of the block element the conjugation condition telescopes to
    ``x_{i-1} - x_i = A[w_i]``, solved by ``x_q = 0``,
    ``x_{i-1} = x_i + A[w_i]``; the leftover equation is the vanishing orbit
    sum, which finite order guarantees.
    """
    c0, spec = standard_form(g)
    g1 = conjugate(g, c0)
    delta = torsion_element(spec)
    offset = mul(g1, inverse(delta)).vec
    coeffs: dict[tuple[int, int], int] = {}
    for orbit in basis_orbits(delta):
        q = len(orbit)
        m = [offset.coefficient(i, j) for (i, j) in orbit]
        if sum(m) != 0:
            raise VerificationError("orbit sum nonzero for a finite-order element")
        x = [0] * q
        for i in range(q - 1, 0, -1):
            x[i - 1] = x[i] + m[i]
        for pair, value in zip(orbit, x):
            if value:
                coeffs[pair] = value
    mover = pure(PairVector.from_pairs(g.n, coeffs))
    c = mul(mover, c0)
    if conjugate(g, c) != delta:
        raise VerificationError("conjugator does not reach the block torsion element")
    return c


def are_conjugate(
    g: QuotientElement, h: QuotientElement
) -> tuple[bool | None, QuotientElement | None]:
    """Decide conjugacy; ``(True, witness)`` with ``witness g witness^-1 = h``,
    ``(False, None)``, or ``(None, None)`` when undecided (both of infinite
    order with matching cycle types)."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    if g == h:
        return True, QuotientElement.identity(g.n)
    og, oh = element_order(g), element_order(h)
    if og != oh:
        return False, None
    if g.perm.cycle_type() != h.perm.cycle_type():
        return False, None
    if og is INFINITE:
        return None, None
    cg = conjugator_to_standard(g)
    ch = conjugator_to_standard(h)
    witness = mul(inverse(ch), cg)
    if conjugate(g, witness) != h:
        raise VerificationError("witness does not conjugate g onto h")
    return True, witness


def count_conjugacy_classes(n: int, k: int) -> int:
    """Number of conjugacy classes of order-``k`` elements on ``n`` strands:
    multisets of odd block lengths >= 3 with sum <= n and lcm = k."""
    if k == 1:
        return 1
    return sum(1 for spec in iter_block_specs(n) if spec.order() == k)
