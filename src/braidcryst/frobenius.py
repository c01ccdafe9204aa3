"""The order-21 Frobenius subgroup of the seven-strand quotient.

The two seed words give x of order 3 and y of order 7 whose commutation
defect ``x y x^-1 y^-2`` is a fixed nonzero lattice vector, so ``<x, y>`` is
not Frobenius as it stands.  Translating y by a lattice vector N repairs it
when ``v = A^N y`` satisfies ``x v x^-1 = v^2`` and ``v^7 = 1``.  F21 acts
freely on the 21 pairs, so ``H^1(F21, Z^21) = 0``: the repaired pairs are
the conjugates ``A^theta (x, v0) A^-theta`` with theta constant on the 7
orbits of x, and the N form an affine family of rank 7 - 1 = 6.  All the
subgroups ``<x, A^N y>`` form one conjugacy class: both the pure conjugator
of ``conjugator_between`` and the conjugator of ``standardize_frobenius``,
which carries any F21 pair onto ``(x, v0)``, are
:func:`quotient.subgroup_conjugator`.

Everything here is specific to n = 7; use ``quotient.embed`` to place the
witness on more strands.
"""

from __future__ import annotations

from functools import lru_cache

from .braidword import BraidWord, PairVector, VerificationError
from .permutation import Record, closure
from .quotient import (
    QuotientElement,
    conjugate,
    element_order,
    mul,
    normalize,
    power,
    pure,
    subgroup_conjugator,
)

N_STRANDS = 7

X_WORD = "2 -1 5 -4"
Y_WORD = "2 3 6 5 4 -3 -2 -1 -3 -2"

class NotASolution(ValueError):
    """The offset vector does not repair the Frobenius relations."""


class NotFrobenius(ValueError):
    """The input pair does not satisfy the order-21 Frobenius relations."""


@lru_cache(maxsize=1)
def build_xy() -> tuple[QuotientElement, QuotientElement]:
    """Normal forms of the two seed words, over ``(1,2,3)(4,5,6)`` and
    ``(1,3,4,2,5,6,7)``.

    Built once per process; every caller shares the same immutable pair.
    """
    x = normalize(BraidWord.from_text(N_STRANDS, X_WORD))
    y = normalize(BraidWord.from_text(N_STRANDS, Y_WORD))
    return x, y


def defect(x: QuotientElement, y: QuotientElement) -> PairVector:
    """Normal-form vector of ``x y x^-1 y^-2``; zero exactly when the
    Frobenius conjugation relation holds."""
    rel = mul(conjugate(y, x), power(y, -2))
    if not rel.is_pure():
        raise ValueError("x y x^-1 y^-2 is not pure: perms do not satisfy the relation")
    return rel.vec


def default_offset() -> PairVector:
    """The reference repair vector N0, the family member at r = (0, 0, 0, -1, 1, 0)."""
    return family_member((0, 0, 0, -1, 1, 0))


def family_member(r: tuple[int, int, int, int, int, int]) -> PairVector:
    """The rank-6 closed-form parametrization of all repair vectors; r must
    be a list or tuple of six ints (not bools, floats or strings)."""
    if not isinstance(r, (list, tuple)) or len(r) != 6 or any(type(v) is not int for v in r):
        raise ValueError(f"family parameters must be six integers, got {r!r}")
    r1, r2, r3, r4, r5, r6 = r
    return PairVector.from_pairs(
        N_STRANDS,
        {
            (1, 2): -r6 + r4 + r3 - r2 + 1,
            (1, 3): -r6 - r2,
            (1, 4): r6,
            (1, 5): r2,
            (1, 6): r5,
            (1, 7): r6 - r5 - r4 - r3 + r2,
            (2, 3): r1,
            (2, 4): -r4 - r3 + r2 - 1,
            (2, 5): r6 + r1,
            (2, 6): r3,
            (2, 7): -r5 - r4 - r3 - 1,
            (3, 4): r4 + r3 + 1,
            (3, 5): r6 - r4 - r3 + r2 + r1,
            (3, 6): r3 - r2,
            (3, 7): -r5 - r4 - r3 + r2,
            (4, 5): -r6 - r2 - r1,
            (4, 6): -r6 + r5 + r4 + r3 - r2 - r1,
            (4, 7): r6 - r3 + r2,
            (5, 6): -r6 + r3 - r2 - r1,
            (5, 7): r4,
            (6, 7): r5 + r4,
        },
    )


def recover_parameters(N: PairVector) -> tuple[int, int, int, int, int, int]:
    """Invert :func:`family_member`: six coordinates read the parameters off
    directly, and the rest of the vector must agree."""
    if N.n != N_STRANDS:
        raise NotASolution("offset vector must live on 7 strands")
    r = (
        N.coefficient(2, 3),
        N.coefficient(1, 5),
        N.coefficient(2, 6),
        N.coefficient(5, 7),
        N.coefficient(1, 6),
        N.coefficient(1, 4),
    )
    if family_member(r) != N:
        raise NotASolution(f"vector is not in the repair family: {N}")
    return r


class SolutionFamily(Record):
    """The repair vectors: ``particular + Z-span(kernel)``."""

    __slots__ = _fields = ("particular", "kernel")
    particular: PairVector
    kernel: tuple[PairVector, ...]

    @property
    def rank(self) -> int:
        return len(self.kernel)


def solve_family() -> SolutionFamily:
    """The repair family: N0 plus the six directions of :func:`family_member`.

    Nothing is solved.  ``(x, A^N y)`` and ``(x, v0)`` lift F21 alike, so
    they differ by a 1-cocycle in ``Z^21``, which F21 permutes freely; as
    ``H^1(F21, Z^21) = 0`` (Brown, GTM 87, III.5 and III.10) it is the
    coboundary of a theta constant on the 7 orbits of x, which moves v0 by
    ``theta - perm(y).theta``, zero only for theta constant on all 21 pairs.
    Hence rank 7 - 1 = 6, and kernel[i] is the direction of parameter i:
    ``family_member(r) = family_member(0) + sum r_i kernel[i]``.
    """
    base = family_member((0,) * 6)
    units = (tuple(int(e == i) for e in range(6)) for i in range(6))
    return SolutionFamily(default_offset(), tuple(family_member(u) - base for u in units))


class FrobeniusWitness(Record):
    """A verified generating pair of an order-21 Frobenius subgroup."""

    __slots__ = _fields = ("x", "v", "certificate")
    x: QuotientElement
    v: QuotientElement
    certificate: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "v": self.v.to_json(),
            "certificate": list(self.certificate),
        }


def _relation_record(name: str, left: QuotientElement, right: QuotientElement) -> dict:
    return {
        "relation": name,
        "left": left.to_json(),
        "right": right.to_json(),
        "holds": left == right,
    }


def build_frobenius(N: PairVector | None = None) -> FrobeniusWitness:
    """Witness for the repaired pair ``(x, A^N y)``; N defaults to N0.

    The certificate decides membership in the repair family: an N off it,
    or not on 7 strands, raises ``NotASolution``.
    """
    if N is None:
        N = default_offset()
    if N.n != N_STRANDS:
        raise NotASolution(f"offset does not repair the relation: {N}")
    x, y = build_xy()
    v = mul(pure(N), y)
    one = QuotientElement.identity(N_STRANDS)
    certificate = (
        _relation_record("x^3", power(x, 3), one),
        _relation_record("v^7", power(v, 7), one),
        _relation_record("x v x^-1 = v^2", conjugate(v, x), power(v, 2)),
    )
    if not all(rec["holds"] for rec in certificate):
        raise NotASolution(f"offset does not repair the relation: {N}")
    return FrobeniusWitness(x=x, v=v, certificate=certificate)


@lru_cache(maxsize=1)
def reference_pair() -> tuple[QuotientElement, QuotientElement]:
    """The reference generators ``(x, v0)`` with ``v0 = A^N0 y``, built once
    per process."""
    x, y = build_xy()
    return x, mul(pure(default_offset()), y)


@lru_cache(maxsize=1)
def reference_group() -> frozenset[QuotientElement]:
    """The 21 elements of ``<x, v0>``, listed and checked once per process
    (``VerificationError`` unless there are exactly 21)."""
    found = frozenset(closure(QuotientElement.identity(N_STRANDS), reference_pair()))
    if len(found) != 21:
        raise VerificationError(f"<x, v0> has {len(found)} elements, not 21")
    return found


def subgroup_closure(*generators: QuotientElement) -> tuple[QuotientElement, ...]:
    """All elements generated by the inputs; a ``ValueError`` past
    ``CLOSURE_LIMIT`` elements (an infinite group, say)."""
    if not generators:
        raise ValueError("need at least one generator")
    found = closure(QuotientElement.identity(generators[0].n), generators)
    return tuple(sorted(found, key=lambda e: (e.perm.images, e.vec.coeffs)))


def conjugator_between(N: PairVector) -> PairVector:
    """A lattice vector theta with ``A^theta (x, v0) A^-theta = (x, A^N y)``.

    N must lie in the repair family (``NotASolution`` otherwise).  theta is
    the vector of :func:`quotient.subgroup_conjugator` between the two pairs,
    checked in the engine: they share their permutations, so the conjugator
    lifts the identity.  F21 has one orbit on the pairs, so theta is zero at
    (1, 2).
    """
    recover_parameters(N)
    x, v0 = reference_pair()
    c = subgroup_conjugator((x, v0), (x, mul(pure(N), build_xy()[1])))
    if c is None:
        raise VerificationError("no lattice vector carries (x, v0) onto (x, A^N y)")
    return c.vec


class StandardizationResult(Record):
    """Conjugation of a Frobenius generating pair onto the reference pair:
    ``conjugate(g3, conjugator) == x`` and ``conjugate(g7, conjugator) == v0``.

    ``power``, the exponent of v0 in the image of g7, is always 1.
    """

    __slots__ = _fields = ("conjugator", "power")
    conjugator: QuotientElement
    power: int


def standardize_frobenius(
    g3: QuotientElement, g7: QuotientElement
) -> StandardizationResult:
    """A verified conjugator carrying ``(g3, g7)`` onto ``(x, v0)``.

    Requires ``g3^3 = g7^7 = 1`` and ``g3 g7 g3^-1 = g7^2`` on 7 strands.
    The conjugator is :func:`quotient.subgroup_conjugator` from the pair to
    ``(x, v0)``.  One exists: S_7 acts freely and transitively on the pairs
    of permutations with these relations, and the group the pair generates
    is finite.

    Checked on every call: the orders and the relation of the input, and
    that the conjugator carries the pair onto ``(x, v0)``.  The image group
    is then ``<x, v0>``, whose 21 elements :func:`reference_group` lists and
    checks once per process; each call only confirms that this group has 21
    elements and contains ``x`` and ``v0`` (``VerificationError`` otherwise).
    """
    if g3.n != N_STRANDS or g7.n != N_STRANDS:
        raise NotFrobenius("generators must live on 7 strands")
    if element_order(g3) != 3:
        raise NotFrobenius("first generator must have order 3")
    if element_order(g7) != 7:
        raise NotFrobenius("second generator must have order 7")
    if conjugate(g7, g3) != power(g7, 2):
        raise NotFrobenius("conjugation relation g3 g7 g3^-1 = g7^2 fails")

    x, v0 = reference_pair()
    c = subgroup_conjugator((g3, g7), (x, v0))
    if c is None:
        raise VerificationError("no conjugator carries the pair onto (x, v0)")
    group = reference_group()
    if len(group) != 21 or x not in group or v0 not in group:
        raise VerificationError("image subgroup does not match the reference")
    return StandardizationResult(conjugator=c, power=1)
