"""Constructive conjugacy for torsion elements."""

import itertools
import math
import random

import pytest

from braidcryst.braidword import BraidWord, PairVector, pairs
from braidcryst.conjugacy import (
    are_conjugate,
    conjugator_to_standard,
    count_conjugacy_classes,
)
from braidcryst.quotient import (
    INFINITE,
    QuotientElement,
    conjugate,
    element_order,
    mul,
    normalize,
    pure,
)
from braidcryst.torsion import (
    BlockSpec,
    cyclic_torsion_element,
    iter_block_specs,
    torsion_element,
    torsion_witness,
)
from braidcryst.permutation import Permutation
from test_quotient import basis_element


def random_element(n, rng, max_len=10):
    letters = [x for x in range(-(n - 1), n) if x]
    w = BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))
    v = PairVector(n, tuple(rng.randint(-2, 2) for _ in pairs(n)))
    return mul(normalize(w), pure(v))


def test_standard_form_of_standard_elements():
    for n in range(3, 9):
        for spec in iter_block_specs(n):
            # already standard: the least conjugator is trivial
            assert conjugator_to_standard(torsion_element(spec)).is_identity()


def test_conjugator_to_standard_on_scrambled_elements():
    rng = random.Random(23)
    for n in range(3, 9):
        specs = list(iter_block_specs(n))
        for _ in range(30):
            spec = rng.choice(specs)
            g = conjugate(torsion_element(spec), random_element(n, rng))
            c = conjugator_to_standard(g)
            assert conjugate(g, c) == torsion_element(spec)

def test_cyclic_element_standardizes():
    for n in (3, 5, 7):
        g = cyclic_torsion_element(n)
        c = conjugator_to_standard(g)
        assert conjugate(g, c) == torsion_element(BlockSpec(n, (n,)))


def test_standard_form_rejects_infinite_order():
    from braidcryst.conjugacy import InfiniteOrderError

    with pytest.raises(InfiniteOrderError):
        conjugator_to_standard(normalize(BraidWord.from_text(3, "1")))


def test_are_conjugate_matches_block_structure():
    rng = random.Random(29)
    for n in (5, 7, 8):
        specs = list(iter_block_specs(n))
        for _ in range(120):
            s1, s2 = rng.choice(specs), rng.choice(specs)
            g = conjugate(torsion_element(s1), random_element(n, rng))
            h = conjugate(torsion_element(s2), random_element(n, rng))
            verdict, witness = are_conjugate(g, h)
            assert verdict == (s1.blocks == s2.blocks)
            if verdict:
                assert conjugate(g, witness) == h
            else:
                assert witness is None


def test_are_conjugate_identity_and_infinite():
    e = QuotientElement.identity(4)
    assert are_conjugate(e, e) == (True, e)
    # equal elements short-circuit even at infinite order
    g = normalize(BraidWord.from_text(4, "1"))
    assert are_conjugate(g, g) == (True, e)
    # distinct infinite-order elements with one cycle type stay undecided
    h = conjugate(g, normalize(BraidWord.from_text(4, "2 3")))
    verdict, witness = are_conjugate(g, h)
    assert verdict is None and witness is None
    # but different orders are decidably non-conjugate
    assert are_conjugate(g, torsion_element(BlockSpec(4, (3,)))) == (False, None)
    with pytest.raises(ValueError, match="^degree mismatch$"):
        are_conjugate(QuotientElement.identity(3), e)


def test_torsion_translates_of_one_permutation_are_conjugate():
    # any two finite-order elements over the same odd-order permutation
    # class are conjugate
    rng = random.Random(31)
    for n in (5, 6):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            if p.is_identity() or p.order() % 2 == 0:
                continue
            if rng.random() < 0.9:
                continue  # sample
            w = torsion_witness(p)
            g = QuotientElement(p, w)
            h = conjugate(g, random_element(n, rng))
            verdict, witness = are_conjugate(g, h)
            assert verdict and conjugate(g, witness) == h


def oracle_class_count(n, k):
    """Multisets of odd parts >= 3, sum <= n, lcm == k (independent count)."""

    def walk(remaining, minimum, acc):
        yield acc
        part = minimum
        while part <= remaining:
            yield from walk(remaining - part, part, acc + [part])
            part += 2

    # the empty multiset is the identity class, lcm 1
    return sum(1 for parts in walk(n, 3, []) if math.lcm(*parts) == k)


def test_count_classes_examples():
    assert count_conjugacy_classes(3, 3) == 1
    assert count_conjugacy_classes(7, 3) == 2  # (3) and (3,3)
    assert count_conjugacy_classes(7, 21) == 0  # needs 3 + 7 = 10 strands
    assert count_conjugacy_classes(10, 21) == 1
    assert count_conjugacy_classes(9, 3) == 3  # (3), (3,3), (3,3,3)
    assert count_conjugacy_classes(5, 4) == 0


def test_count_classes_against_oracle():
    for n in range(3, 13):
        for k in (1, 3, 5, 7, 9, 15, 21, 45):
            assert count_conjugacy_classes(n, k) == oracle_class_count(n, k)


def test_count_classes_match_block_spec_enumeration():
    # the knapsack count against the listing it replaced: every BlockSpec
    # whose lcm is k, and the identity class for k = 1
    for n in range(2, 21):
        specs = list(iter_block_specs(n))
        for k in range(1, 46, 2):
            listed = 1 if k == 1 else sum(1 for spec in specs if spec.order() == k)
            assert count_conjugacy_classes(n, k) == listed, (n, k)


def test_count_classes_refuses_past_the_table_limit():
    assert count_conjugacy_classes(10**9, 1) == 1  # no block length divides 1
    with pytest.raises(ValueError, match="refusing"):
        count_conjugacy_classes(10**6, 105)


def test_witness_right_multiplied_by_centralizer_still_works():
    rng = random.Random(37)
    n = 6
    g = torsion_element(BlockSpec(n, (3, 3)))
    h = conjugate(g, random_element(n, rng))
    _, witness = are_conjugate(g, h)
    # witness * g conjugates g to h as well since g centralizes itself
    assert conjugate(g, mul(witness, g)) == h


def test_are_conjugate_orders_each_input_once(monkeypatch):
    import braidcryst.conjugacy as conjugacy

    calls = []

    def counted(g):
        calls.append(g)
        return element_order(g)

    monkeypatch.setattr(conjugacy, "element_order", counted)
    rng = random.Random(41)
    delta = torsion_element(BlockSpec(4, (3,)))
    finite = conjugate(delta, random_element(4, rng))
    infinite = mul(delta, basis_element(4, 1, 4))
    assert element_order(infinite) is INFINITE
    assert infinite.perm.cycle_type() == delta.perm.cycle_type()
    sigma = normalize(BraidWord.from_text(4, "1"))
    cases = [
        (delta, finite, True),
        (delta, infinite, False),
        (infinite, delta, False),
        (sigma, conjugate(sigma, normalize(BraidWord.from_text(4, "2 3"))), None),
    ]
    for g, h, verdict in cases:
        calls.clear()
        found, witness = are_conjugate(g, h)
        assert found is verdict
        assert (witness is not None) == (verdict is True)
        assert calls == [g, h]


def test_conjugacy_checks_raise_when_planted_false(monkeypatch):
    import braidcryst.quotient as quotient
    from braidcryst import VerificationError

    rng = random.Random(43)
    delta = torsion_element(BlockSpec(5, (3,)))
    g = conjugate(delta, random_element(5, rng))
    h = conjugate(delta, random_element(5, rng))
    assert g != h and are_conjugate(g, h)[0]
    # finite elements of one cycle type are conjugate, so a failed search is
    # an error; a wrong permutation or vector is caught by the checks
    plants = [
        ("conjugating_permutation", lambda a, b: None, "no conjugator"),
        ("conjugating_permutation", lambda a, b: Permutation.from_text(5, "(1,4)"), "no conjugator"),
        ("_theta_walk", lambda sources, targets: None, "no conjugator"),
        ("_theta_walk", lambda sources, targets: PairVector.basis(5, 1, 2),
         "does not carry the sources"),
    ]
    for name, plant, message in plants:
        with monkeypatch.context() as m:
            m.setattr(quotient, name, plant)
            with pytest.raises(VerificationError, match=message):
                conjugator_to_standard(g)
            with pytest.raises(VerificationError, match=message):
                are_conjugate(g, h)
