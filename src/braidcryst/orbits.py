"""Conjugation orbits of block torsion elements on the pair basis.

``enumerate_orbits`` walks the action of any element; ``closed_form_orbits``
writes a block torsion element's table down from its block data alone,
never building the element, in four families: pairs inside one block (one
orbit of length ``k`` per "winding distance" ``h``), pairs of one block
point and one point beyond the blocks (length ``k`` per outside point),
pairs across two blocks (``gcd(kp, kq)`` orbits of length ``lcm(kp, kq)``),
and fixed pairs beyond the blocks.  Orbits are listed following the action
direction, starting at the lexicographically least pair, and sorted by it.
"""

from __future__ import annotations

import math
from typing import Iterator

from .braidword import VerificationError, pair_offsets, pairs
from .permutation import Record
from .quotient import QuotientElement, basis_orbits
from .torsion import BlockSpec

Pair = tuple[int, int]


class OrbitTable(Record):
    __slots__ = _fields = ("orbits",)
    orbits: tuple[tuple[Pair, ...], ...]

    def to_json(self) -> list[list[str]]:
        return [[f"{i},{j}" for (i, j) in orbit] for orbit in self.orbits]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def enumerate_orbits(g: QuotientElement) -> OrbitTable:
    return OrbitTable(basis_orbits(g))


def _wrap(x: int, m: int) -> int:
    """Representative of ``x`` modulo ``m`` in ``{1, ..., m}``."""
    return (x - 1) % m + 1


def _families(spec: BlockSpec) -> Iterator[tuple[tuple, list[Pair]]]:
    """The orbits of the block element of ``spec`` by index formulas, each
    in action order with the label prefix :func:`relabeled_basis` gives it."""
    n = spec.n
    blocks = spec.blocks
    offsets = spec.offsets()
    span = spec.span()
    for r1, (r, k) in enumerate(zip(offsets, blocks), start=1):
        # pairs within one block: distance class h winds around the block
        for h in range(1, (k - 1) // 2 + 1):
            yield ("a", r1, h), [
                (r + h - t + 1, r + k - t + 1) if t <= h
                else (r + k - t + 1, r + k - t + 1 + h)
                for t in range(1, k + 1)
            ]
        # one block point, one point beyond the blocks: the block index decreases
        for j in range(span + 1, n + 1):
            yield ("b", r1, j), [(r + _wrap(2 - t, k), j) for t in range(1, k + 1)]

    # pairs across two blocks: both coordinates decrease cyclically
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            kp, kq = blocks[a], blocks[b]
            rp, rq = offsets[a], offsets[b]
            length = math.lcm(kp, kq)
            for v in range(1, math.gcd(kp, kq) + 1):
                yield ("c", a + 1, b + 1, v), [
                    (rp + _wrap(2 - t, kp), rq + _wrap(1 - t + v, kq))
                    for t in range(1, length + 1)
                ]

    # pairs fixed pointwise
    for i in range(span + 1, n + 1):
        for j in range(i + 1, n + 1):
            yield ("d", i, j), [(i, j)]


def closed_form_orbits(spec: BlockSpec) -> OrbitTable:
    """Orbit table of the block torsion element of ``spec``, by formula alone.

    Its pairs are the very tuples of ``pairs(spec.n)``, shared by every table
    on ``n`` strands rather than built afresh for each.
    """
    basis, off = pairs(spec.n), pair_offsets(spec.n)
    rotated = []
    for _, orbit in _families(spec):
        k = orbit.index(min(orbit))
        rotated.append(tuple(basis[off[i] + j] for i, j in orbit[k:] + orbit[:k]))
    return OrbitTable(tuple(sorted(rotated, key=lambda o: o[0])))


def relabeled_basis(spec: BlockSpec) -> dict[Pair, tuple]:
    """Bijective relabeling of the pair basis by orbit coordinates.

    Labels are ``("a", r, h, t)`` within block ``r``, ``("b", r, j, t)`` for
    block ``r`` against outside point ``j``, ``("c", p, q, v, t)`` across
    blocks, and ``("d", i, j)`` for fixed pairs.  Block numbers are 1-based.
    ``t`` counts steps along the action, except that a ``"b"`` orbit runs
    backwards through its block and ``t`` names the block point ``r + t``.
    """
    label: dict[Pair, tuple] = {}

    def put(pair: Pair, tag: tuple) -> None:
        if pair in label:
            raise VerificationError(f"pair {pair} labeled twice")
        label[pair] = tag

    for prefix, orbit in _families(spec):
        for t in range(1, len(orbit) + 1):
            # a "b" orbit visits block point t at step _wrap(2 - t, k)
            step = _wrap(2 - t, len(orbit)) if prefix[0] == "b" else t
            put(orbit[step - 1], prefix if prefix[0] == "d" else prefix + (t,))
    if len(label) != spec.n * (spec.n - 1) // 2:
        raise VerificationError("relabeling is not a bijection")
    return label
