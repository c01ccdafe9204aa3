"""Acceptance checks, one per criterion, all exact.

Each criterion is a single test that prints one PASS/FAIL line.  The module
also runs standalone: ``python3 tests/test_acceptance.py``.
"""

import itertools
import random
import sys

from braidcryst.braidword import (
    BraidWord,
    PairVector,
    full_twist_word,
    pairs,
)
from braidcryst.conjugacy import are_conjugate
from braidcryst.frobenius import (
    build_frobenius,
    build_xy,
    default_offset,
    defect,
    family_member,
    recover_parameters,
    solve_family,
    standardize_frobenius,
    subgroup_closure,
)
from braidcryst.orbits import closed_form_orbits, enumerate_orbits
from braidcryst.permutation import Permutation
from braidcryst.quotient import (
    QuotientElement,
    basis_orbits,
    canonical_lift,
    conjugate,
    element_order,
    inverse,
    mul,
    normalize,
    power,
    pure,
)
from braidcryst.subgroups import holonomy_det, holonomy_matrix, three_strand_catalog
from braidcryst.torsion import (
    BlockSpec,
    block_cycle,
    iter_block_specs,
    torsion_block,
    torsion_element,
    torsion_witness,
)
from braidcryst.zlinalg import mat_vec, row_lattice_hnf, solve_integer
from test_frobenius import repair_system
from word_oracle import LIFTS, closed_cocycle, reverse_scan_lift, word_cocycle, word_mul, word_normalize


def _report(num, text, check):
    try:
        check()
    except AssertionError:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def _random_word(n, rng, max_len=12):
    letters = [k for k in range(-(n - 1), n) if k]
    return BraidWord(
        n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    )


def _random_element(n, rng):
    v = PairVector(n, tuple(rng.randint(-2, 2) for _ in pairs(n)))
    return mul(normalize(_random_word(n, rng)), pure(v))


def _criterion_1():
    x, y = build_xy()
    D = defect(x, y)
    expect = PairVector.from_pairs(
        7,
        {
            (1, 2): 1, (1, 6): 1, (1, 7): 1, (4, 7): 1,
            (2, 4): -1, (2, 6): -1, (2, 7): -1, (4, 6): -1,
        },
    )
    assert D == expect


def test_criterion_01_frobenius_defect_vector():
    _report(1, "defect vector of (x, y) is the frozen eight-pair sign pattern", _criterion_1)


def _criterion_2():
    w = build_frobenius()  # N0 by default
    assert default_offset() == PairVector.from_pairs(
        7, {(3, 5): 1, (1, 6): 1, (2, 7): -1, (5, 7): -1}
    )
    assert power(w.x, 3).is_identity()
    assert power(w.v, 7).is_identity()
    assert conjugate(w.v, w.x) == power(w.v, 2)
    closure = subgroup_closure(w.x, w.v)
    assert len(closure) == 21
    orders = sorted(element_order(g) for g in closure)
    assert orders == [1] + [3] * 14 + [7] * 6


def test_criterion_02_frobenius_certification():
    _report(2, "x^3 = v0^7 = 1, x v0 x^-1 = v0^2, and <x, v0> has 21 elements (14 of order 3, 6 of order 7)", _criterion_2)


def _criterion_3():
    fam = solve_family()
    assert fam.rank == 6
    assert len(fam.kernel) == 6
    # the family is the integer solution set of the 24-row repair system
    M, rhs = repair_system()
    solved = solve_integer(M, rhs)
    assert solved is not None
    assert mat_vec(M, list(default_offset().coeffs)) == rhs
    assert row_lattice_hnf(solved[1]) == row_lattice_hnf([list(k.coeffs) for k in fam.kernel])
    # the designated particular solution
    assert recover_parameters(default_offset()) == (0, 0, 0, -1, 1, 0)
    x, y = build_xy()
    assert defect(x, mul(pure(default_offset()), y)).is_zero()
    # the parametrization solves the system for every parameter choice
    rng = random.Random(101)
    samples = [tuple(0 for _ in range(6))]
    for i in range(6):
        e = [0] * 6
        e[i] = 1
        samples.append(tuple(e))
        e[i] = -1
        samples.append(tuple(e))
    samples += [tuple(rng.randint(-4, 4) for _ in range(6)) for _ in range(20)]
    for r in samples:
        N = family_member(r)
        assert recover_parameters(N) == r
        assert defect(x, mul(pure(N), y)).is_zero()


def test_criterion_03_solution_family():
    _report(3, "repair system has kernel rank 6; particular solution and parametrization verify", _criterion_3)


def _criterion_4():
    rng = random.Random(211)
    x, y = build_xy()
    w = build_frobenius()
    target = set(subgroup_closure(w.x, w.v))
    checked = 0
    for i in range(130):
        r = tuple(rng.randint(-3, 3) for _ in range(6))
        g3, g7 = x, mul(pure(family_member(r)), y)
        if i >= 100:
            # also scramble the pair by a random conjugation
            c = _random_element(7, rng)
            g3, g7 = conjugate(g3, c), conjugate(g7, c)
        res = standardize_frobenius(g3, g7)
        assert conjugate(g3, res.conjugator) == w.x
        assert conjugate(g7, res.conjugator) == power(w.v, res.power)
        assert res.power == 1
        image = set(subgroup_closure(conjugate(g3, res.conjugator), conjugate(g7, res.conjugator)))
        assert image == target
        checked += 1
    assert checked >= 100


def test_criterion_04_unique_conjugacy_class():
    _report(4, "130 seeded family samples standardize onto <x, v0> with verified conjugators", _criterion_4)


def _criterion_5():
    for n in range(2, 7):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            if p.is_identity():
                continue
            witness = torsion_witness(p)
            if p.order() % 2 == 1:
                assert witness is not None
                assert element_order(QuotientElement(p, witness)) == p.order()
            else:
                assert witness is None


def test_criterion_05_torsion_dichotomy():
    _report(5, "for all p in S_n, n <= 6: witness iff odd order, with exact element order", _criterion_5)


def _criterion_6():
    import math

    for n in range(3, 13):
        for k in (3, 5, 7, 9):
            for r in range(0, n - k + 1):
                assert element_order(torsion_block(r, k, n)) == k
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            assert element_order(torsion_element(spec)) == math.lcm(*spec.blocks)


def test_criterion_06_delta_orders():
    _report(6, "delta blocks have order k for k in {3,5,7,9}, n <= 12; products have lcm order", _criterion_6)


def _criterion_7():
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            assert (
                closed_form_orbits(spec).orbits
                == enumerate_orbits(torsion_element(spec)).orbits
            )
    # full positive cycle: floor((n-1)/2) orbits of length n, plus one of
    # length n/2 for even n
    for n in range(3, 10):
        sizes = sorted(enumerate_orbits(block_cycle(0, n, n)).sizes(), reverse=True)
        expect = sorted([n] * ((n - 1) // 2) + ([n // 2] if n % 2 == 0 else []), reverse=True)
        assert sizes == expect
    # frozen orbit tables of the two Frobenius generators
    w = build_frobenius()
    fmt = lambda g: [["".join(map(str, P)) for P in orbit] for orbit in basis_orbits(g)]
    assert fmt(w.x) == [
        ["12", "13", "23"],
        ["14", "36", "25"],
        ["15", "34", "26"],
        ["16", "35", "24"],
        ["17", "37", "27"],
        ["45", "46", "56"],
        ["47", "67", "57"],
    ]
    assert fmt(w.v) == [
        ["12", "47", "36", "15", "27", "46", "35"],
        ["13", "17", "67", "56", "25", "24", "34"],
        ["14", "37", "16", "57", "26", "45", "23"],
    ]


def test_criterion_07_orbit_tables():
    _report(7, "closed-form orbit tables equal enumeration for all specs with sum <= n <= 9; frozen x/y tables match", _criterion_7)


def _criterion_8():
    rng = random.Random(307)
    for n in range(3, 9):
        specs = list(iter_block_specs(n))
        for _ in range(500):
            s1, s2 = rng.choice(specs), rng.choice(specs)
            g = conjugate(torsion_element(s1), _random_element(n, rng))
            h = conjugate(torsion_element(s2), _random_element(n, rng))
            verdict, witness = are_conjugate(g, h)
            assert verdict == (g.perm.cycle_type() == h.perm.cycle_type())
            assert verdict == (s1.blocks == s2.blocks)
            if verdict:
                assert conjugate(g, witness) == h
            else:
                assert witness is None


def test_criterion_08_conjugacy_classification():
    _report(8, "500 seeded pairs per n <= 8: conjugate iff equal cycle types, witnesses verified", _criterion_8)


def _criterion_9():
    report = three_strand_catalog()
    assert [s["name"] for s in report["subgroups"]] == [
        "trivial",
        "three_cycle",
        "transposition",
        "symmetric",
    ]
    assert all(s["relators_verified"] for s in report["subgroups"])
    # Z^3, Z + Z_3, Z + Z, Z respectively as (free_rank, torsion...) lists
    assert [s["abelianization"] for s in report["subgroups"]] == [
        [3],
        [1, 3],
        [2],
        [1],
    ]
    by_name = {s["name"]: s for s in report["subgroups"]}
    assert by_name["transposition"]["holonomy_generators"] == [
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    ]
    assert by_name["transposition"]["det_spectrum"] == [-1, 1]
    assert by_name["three_cycle"]["holonomy_generators"] == [
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    ]
    assert by_name["three_cycle"]["det_spectrum"] == [1]
    assert holonomy_det(Permutation.from_cycles(3, [(1, 2)])) == -1
    assert holonomy_det(Permutation.from_text(3, "(1,3,2)")) == 1
    # designated finite-index subgroups: L torsion free, L' not
    assert report["bieberbach_example"]["torsion_free"] is True
    assert report["torsion_example"]["torsion_free"] is False


def test_criterion_09_b3_catalog():
    _report(9, "three-strand catalog: relators hold, abelianizations and holonomy match, L/L' decided", _criterion_9)


def _criterion_10():
    rng = random.Random(401)
    for n in range(3, 10):
        for _ in range(1000):
            w1, w2 = _random_word(n, rng, 10), _random_word(n, rng, 10)
            g, h = normalize(w1), normalize(w2)
            both = normalize(w1 * w2)
            assert mul(g, h) == both
            assert word_normalize(w1, reverse_scan_lift) == g
            assert word_mul(g, h, reverse_scan_lift) == both
            for lift in LIFTS:
                assert closed_cocycle(g.perm, h.perm) == word_cocycle(g.perm, h.perm, lift)
        tw = normalize(full_twist_word(n))
        assert tw.perm.is_identity()
        assert tw.vec == PairVector(n, tuple(1 for _ in pairs(n)))


def test_criterion_10_engine_soundness():
    _report(10, "normalize(concat) = mul on 1000 pairs per n in 3..9; full twist all ones; lift independent", _criterion_10)


CRITERIA = [
    (1, _criterion_1),
    (2, _criterion_2),
    (3, _criterion_3),
    (4, _criterion_4),
    (5, _criterion_5),
    (6, _criterion_6),
    (7, _criterion_7),
    (8, _criterion_8),
    (9, _criterion_9),
    (10, _criterion_10),
]


def main() -> int:
    failures = 0
    for num, fn in CRITERIA:
        try:
            fn()
            print(f"PASS criterion {num}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL criterion {num}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
