"""Torsion elements: block cycles, block specs, the finite-order dichotomy."""

import itertools
import math
import random

import pytest

from braidcryst.braidword import BraidWord, PairVector, pairs
from braidcryst.permutation import Permutation
from braidcryst.quotient import (
    INFINITE,
    QuotientElement,
    basis_orbits,
    element_order,
    embed,
    mul,
    normalize,
    power,
)
from braidcryst.torsion import (
    BlockSpec,
    abelian_realization,
    block_cycle,
    block_cycle_word,
    cyclic_torsion_element,
    finite_orders,
    iter_block_specs,
    torsion_block,
    torsion_block_word,
    torsion_element,
    torsion_element_word,
    torsion_witness,
)
from test_zlinalg import run_python


def test_block_spec_validation():
    spec = BlockSpec(7, (3, 3))
    assert spec.offsets() == (0, 3)
    assert spec.span() == 6
    assert spec.order() == 3
    assert BlockSpec.from_text(9, "3,5").blocks == (3, 5)
    with pytest.raises(ValueError):
        BlockSpec(7, (4,))  # even block
    with pytest.raises(ValueError):
        BlockSpec(7, (1,))
    with pytest.raises(ValueError):
        BlockSpec(7, (5, 3))  # not ascending
    with pytest.raises(ValueError):
        BlockSpec(5, (3, 3))  # does not fit


def target_permutation(spec):
    """Consecutive ascending cycles, one per block: the permutation of
    ``torsion_element(spec)``."""
    cycles = [tuple(range(r + 1, r + k + 1)) for r, k in zip(spec.offsets(), spec.blocks)]
    return Permutation.from_cycles(spec.n, cycles)


def test_target_permutation():
    spec = BlockSpec(7, (3, 3))
    p = target_permutation(spec)
    assert p.cycles() == ((1, 2, 3), (4, 5, 6))
    assert target_permutation(BlockSpec(5, (5,))).order() == 5


def test_block_cycle_word_letters():
    assert str(block_cycle_word(0, 3, 7)) == "1 2"
    assert str(block_cycle_word(3, 3, 7)) == "4 5"
    assert str(block_cycle_word(0, 7, 7)) == "1 2 3 4 5 6"
    with pytest.raises(ValueError, match=r"^block \(r=3, k=3\) does not fit in n=5$"):
        block_cycle_word(3, 3, 5)


def test_torsion_block_word_letters():
    assert str(torsion_block_word(0, 3, 7)) == "2 -1"
    assert str(torsion_block_word(3, 3, 7)) == "5 -4"
    assert str(torsion_block_word(0, 7, 7)) == "6 5 4 -3 -2 -1"
    with pytest.raises(ValueError, match=r"^block \(r=3, k=5\) does not fit in n=7$"):
        torsion_block_word(3, 5, 7)


def test_delta_orders_over_all_positions():
    # exact order k for every window position, all odd k up to 9, n up to 12
    for n in range(3, 13):
        for k in (3, 5, 7, 9):
            if k > n:
                continue
            for r in range(0, n - k + 1):
                g = torsion_block(r, k, n)
                assert element_order(g) == k
                assert power(g, k).is_identity()


def test_delta_times_alpha_is_the_tail_sum():
    # delta_{r,k} * alpha_{r,k} is pure, +1 on {i, k+r} for the upper half
    for (r, k, n) in [(0, 3, 3), (0, 5, 5), (2, 5, 8), (0, 7, 7), (1, 3, 6)]:
        g = mul(torsion_block(r, k, n), block_cycle(r, k, n))
        assert g.perm.is_identity()
        want = PairVector.from_pairs(
            n, {(i, k + r): 1 for i in range((k + 1) // 2 + r, k + r)}
        )
        assert g.vec == want


def test_alpha_has_infinite_order_for_k_ge_3():
    for (r, k, n) in [(0, 3, 3), (0, 5, 7), (1, 3, 5)]:
        assert element_order(block_cycle(r, k, n)) is INFINITE


def test_torsion_element_composite_specs():
    # order of the product element is the lcm of the block lengths
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            g = torsion_element(spec)
            assert g.perm == target_permutation(spec)
            assert element_order(g) == spec.order()
            assert spec.order() == math.lcm(*spec.blocks)


def test_torsion_element_word_concatenates_blocks():
    spec = BlockSpec(7, (3, 3))
    assert str(torsion_element_word(spec)) == "2 -1 5 -4"
    assert normalize(torsion_element_word(spec)) == torsion_element(spec)


def test_cyclic_torsion_element():
    # an order-n translate of the positive full-cycle lift itself, so its
    # permutation runs backwards, unlike the delta family
    for n in range(3, 10, 2):
        g = cyclic_torsion_element(n)
        assert element_order(g) == n
        assert g.perm == block_cycle(0, n, n).perm
    assert cyclic_torsion_element(5).perm == Permutation.from_text(5, "(1,5,4,3,2)")
    for n in (4, 1):
        with pytest.raises(ValueError, match="^a full-cycle torsion element needs odd n >= 3$"):
            cyclic_torsion_element(n)


def test_cyclic_torsion_element_is_the_witnessed_lift():
    for n in range(3, 22, 2):
        p = block_cycle(0, n, n).perm
        assert cyclic_torsion_element(n) == QuotientElement(p, torsion_witness(p))
    # -1 on the least pair of each pair orbit of the full cycle
    assert cyclic_torsion_element(5) == QuotientElement(
        Permutation((5, 1, 2, 3, 4)), PairVector(5, (-1, -1, 0, 0, 0, 0, 0, 0, 0, 0))
    )


def test_finite_orders():
    assert finite_orders(3) == [1, 3]
    assert finite_orders(5) == [1, 3, 5]
    assert finite_orders(6) == [1, 3, 5]
    assert finite_orders(8) == [1, 3, 5, 7, 15]
    assert finite_orders(10) == [1, 3, 5, 7, 9, 15, 21]


def test_iter_block_specs():
    specs = {s.blocks for s in iter_block_specs(9)}
    assert specs == {(3,), (5,), (7,), (9,), (3, 3), (3, 5), (3, 3, 3)}
    assert {s.blocks for s in iter_block_specs(3)} == {(3,)}


def test_witness_dichotomy_small():
    # odd-order permutations get a working witness, everything else None
    for n in range(2, 6):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            if p.is_identity():
                continue
            w = torsion_witness(p)
            if p.order() % 2 == 1:
                assert w is not None
                assert power(QuotientElement(p, w), p.order()).is_identity()
            else:
                assert w is None


def lift_power_witness(p):
    """The witness derived from ``L(p)^m``, ``m = order(p)``: ``None`` unless
    ``m/|O|`` divides the power's value on the least pair of every orbit
    ``O``, else minus the quotient there."""
    m = p.order()
    lift = QuotientElement(p, PairVector.zero(p.n))
    t = power(lift, m).vec
    witness = {}
    for orbit in basis_orbits(lift):
        share, t_val = m // len(orbit), t.coefficient(*orbit[0])
        if t_val % share:
            return None
        if t_val:
            witness[orbit[0]] = -(t_val // share)
    return PairVector.from_pairs(p.n, witness)


def test_witness_matches_the_lift_power_derivation():
    checked = 0
    for n in range(2, 8):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            if not p.is_identity():
                assert torsion_witness(p) == lift_power_witness(p)
                checked += 1
    assert checked == 5906


def test_witness_rejects_identity():
    with pytest.raises(ValueError):
        torsion_witness(Permutation.identity(4))


def test_is_torsion_offset_matches_direct_order():
    # vec is an offset against the standard torsion element
    from braidcryst.quotient import pure

    rng = random.Random(13)
    checked = hits = 0
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            base = torsion_element(spec)
            p = target_permutation(spec)
            for _ in range(50):
                if rng.random() < 0.5:
                    # coboundary shift: stays torsion
                    b = PairVector(n, tuple(rng.randint(-2, 2) for _ in pairs(n)))
                    v = b - b.precompose(p)
                else:
                    v = PairVector(n, tuple(rng.randint(-2, 2) for _ in pairs(n)))
                g = mul(pure(v), base)
                direct = power(g, spec.order()).is_identity()
                assert (element_order(mul(pure(v), torsion_element(spec))) is not INFINITE) == direct
                checked += 1
                hits += direct
    assert checked >= 1000
    assert 0 < hits < checked


def test_abelian_realization():
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            gens = abelian_realization(spec)
            assert len(gens) == len(spec.blocks)
            for g, k in zip(gens, spec.blocks):
                assert element_order(g) == k
            for a in gens:
                for b in gens:
                    assert mul(a, b) == mul(b, a)
            prod = gens[0]
            for g in gens[1:]:
                prod = mul(prod, g)
            assert element_order(prod) == spec.order()


def test_torsion_survives_embedding():
    for (spec_n, blocks, m) in [(3, (3,), 6), (5, (5,), 9), (7, (3, 3), 8)]:
        g = torsion_element(BlockSpec(spec_n, blocks))
        h = embed(g, m)
        assert element_order(h) == element_order(g)


def test_witness_check_survives_optimize():
    # under -O every assert is gone; the witness check must still raise when
    # the product it verifies (here a stubbed mul) is wrong
    script = """
import sys
import braidcryst.torsion as t
from braidcryst import Permutation, VerificationError
p = Permutation.from_text(3, "(1,2,3)")
print(sys.flags.optimize, t.torsion_witness(p) is not None)
t.mul = lambda a, b: b
try:
    t.torsion_witness(p)
except VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "True", "raised"]


def test_torsion_element_matches_its_word():
    specs = [spec for n in range(2, 11) for spec in (BlockSpec(n, ()), *iter_block_specs(n))]
    assert len(specs) == 41
    for spec in specs:
        assert torsion_element(spec) == normalize(torsion_element_word(spec))
