"""Embedding the Frobenius group of order 21 into the seven-strand quotient.

Walks the whole pipeline: the candidate generator pair, its defect, the
lattice repair family, certification, and standardization of a scrambled
copy back onto the canonical one.
"""

import random

from braidcryst import (
    BraidWord,
    PairVector,
    build_frobenius,
    build_xy,
    conjugate,
    default_offset,
    defect,
    element_order,
    family_member,
    mul,
    normalize,
    pairs,
    pure,
    solve_family,
    standardize_frobenius,
    subgroup_closure,
)
from braidcryst.frobenius import X_WORD, Y_WORD


def main():
    x, y = build_xy()
    print(f"x = normal form of '{X_WORD}'  ->  {x}")
    print(f"y = normal form of '{Y_WORD}'  ->  {y}")
    print(f"orders: x has {element_order(x)}, y has {element_order(y)}")
    print()

    D = defect(x, y)
    print("x y x^-1 y^-2 is pure but nonzero; its vector (the defect):")
    print(f"  {D}")
    print("so (x, y) is not yet a Frobenius pair.")
    print()

    fam = solve_family()
    print("translating y by a lattice vector N repairs it when x v x^-1 = v^2 and v^7 = 1;")
    print("the repaired pairs are the conjugates of (x, v0) by lattice vectors constant")
    print(f"on the 7 orbits of x, so the N form a coset of a rank-{fam.rank} lattice.")
    N0 = default_offset()
    print(f"canonical choice N0 = {N0}")
    print()

    w = build_frobenius()
    print("v0 = A^N0 * y certifies:")
    for rec in w.certificate:
        print(f"  {rec['relation']}: {'ok' if rec['holds'] else 'FAIL'}")
    closure = subgroup_closure(w.x, w.v)
    orders = sorted(element_order(g) for g in closure)
    print(f"|<x, v0>| = {len(closure)}; orders: 1 x1, 3 x{orders.count(3)}, 7 x{orders.count(7)}")
    print()

    rng = random.Random(2026)
    r = tuple(rng.randint(-3, 3) for _ in range(6))
    scramble = mul(
        normalize(BraidWord(7, tuple(rng.choice([1, 2, 3, 4, 5, 6, -1, -2]) for _ in range(8)))),
        pure(PairVector(7, tuple(rng.randint(-1, 1) for _ in pairs(7)))),
    )
    g3 = conjugate(w.x, scramble)
    g7 = conjugate(mul(pure(family_member(r)), y), scramble)
    print(f"scrambled copy: family parameters r = {r}, then a random conjugation.")
    res = standardize_frobenius(g3, g7)
    print("standardize_frobenius recovers a conjugator (permutation match, then lattice shift):")
    print(f"  conj(g3) == x:  {conjugate(g3, res.conjugator) == w.x}")
    print(f"  conj(g7) == v0: {conjugate(g7, res.conjugator) == w.v}")
    image = set(subgroup_closure(conjugate(g3, res.conjugator), conjugate(g7, res.conjugator)))
    print(f"  image subgroup == <x, v0>: {image == set(closure)}")


if __name__ == "__main__":
    main()
