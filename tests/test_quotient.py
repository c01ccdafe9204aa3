"""Normal forms and exact arithmetic in B_n/[P_n,P_n]."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcryst.braidword import BraidWord, PairVector, full_twist_word, linking_vector, pairs
from braidcryst.permutation import Permutation, all_permutations
from braidcryst.quotient import (
    INFINITE,
    QuotientElement,
    action_on_basis,
    basis_element,
    basis_orbits,
    canonical_lift,
    conjugate,
    element_order,
    embed,
    inverse,
    mul,
    normalize,
    power,
    pure,
    to_word,
)
from word_oracle import (
    LIFTS,
    closed_cocycle,
    reverse_scan_lift,
    word_cocycle,
    word_inverse,
    word_mul,
    word_normalize,
)


def random_word(n, rng, max_len=12):
    letters = [k for k in range(-(n - 1), n) if k]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def test_canonical_lift_basics():
    for n in range(2, 6):
        for p in all_permutations(n):
            w = canonical_lift(p)
            assert all(k > 0 for k in w.letters)
            assert len(w.letters) == p.inversions()
            assert w.permutation() == p
            # positive words of minimal length lift a permutation uniquely,
            # so any section with these properties gives the same element
            alt = reverse_scan_lift(p)
            assert all(k > 0 for k in alt.letters)
            assert len(alt.letters) == p.inversions()
            assert alt.permutation() == p
            assert linking_vector(w * alt.inverse()).is_zero()


def test_canonical_lift_example():
    assert str(canonical_lift(Permutation.from_text(3, "(1,3,2)"))) == "1 2"


def test_normalize_identity_relations():
    n3 = lambda t: normalize(BraidWord.from_text(3, t))
    assert n3("").is_identity()
    # braid relation
    assert n3("1 2 1 -2 -1 -2").is_identity()
    # pure but nontrivial
    g = n3("1 1 -2 -2")
    assert g.perm.is_identity() and not g.is_identity()
    assert g.vec == PairVector.basis(3, 1, 2) - PairVector.basis(3, 2, 3)


def test_normalize_vs_mul_dual_route():
    rng = random.Random(0)
    for n in range(3, 10):
        for _ in range(60):
            w1, w2 = random_word(n, rng), random_word(n, rng)
            assert mul(normalize(w1), normalize(w2)) == normalize(w1 * w2)


def test_section_swap_invariance():
    rng = random.Random(1)
    for n in range(3, 10):
        for _ in range(40):
            w = random_word(n, rng)
            assert word_normalize(w, reverse_scan_lift) == normalize(w)
            g, h = normalize(random_word(n, rng)), normalize(random_word(n, rng))
            assert word_mul(g, h, reverse_scan_lift) == mul(g, h)
            assert word_inverse(g, reverse_scan_lift) == inverse(g)
            for lift in LIFTS:
                assert closed_cocycle(g.perm, h.perm) == word_cocycle(g.perm, h.perm, lift)


def test_closed_forms_match_word_cocycle_exhaustively():
    # every pair of permutations with n <= 5, each carrying a fixed random
    # vector, against the word-built cocycle under both lifts
    rng = random.Random(12)
    for n in range(2, 6):
        perms = list(all_permutations(n))
        canonical, reverse = ({p: lift(p) for p in perms}.__getitem__ for lift in LIFTS)
        elements = [
            QuotientElement(p, PairVector(n, tuple(rng.randint(-3, 3) for _ in pairs(n))))
            for p in perms
        ]
        for g in elements:
            assert inverse(g) == word_inverse(g, canonical) == word_inverse(g, reverse)
            for h in elements:
                assert mul(g, h) == word_mul(g, h, canonical)
                assert closed_cocycle(g.perm, h.perm) == word_cocycle(g.perm, h.perm, reverse)


def test_normalize_matches_word_route():
    rng = random.Random(13)
    for n in range(2, 13):
        for _ in range(60):
            w = random_word(n, rng, max_len=4 * n)
            g = normalize(w)
            for lift in LIFTS:
                assert g == word_normalize(w, lift)


def test_large_powers_against_word_oracle():
    # entries past 127 leave the packed storage; the closed forms must agree
    # with the word route there and on the way back
    n = 4
    twist = full_twist_word(n)
    tw = normalize(twist)
    big = power(tw, 200)
    assert big.vec.coeffs == (200,) * 6
    assert big == word_normalize(BraidWord(n, twist.letters * 200))
    assert power(tw, -200) == inverse(big) == word_inverse(big)
    assert mul(big, power(tw, -200)).is_identity()
    w = BraidWord.from_text(n, "1 2 2 3 -1")
    g = normalize(w)
    g400 = power(g, 400)
    assert max(abs(c) for c in g400.vec.coeffs) > 127
    assert g400 == word_normalize(BraidWord(n, w.letters * 400))
    assert mul(g400, g) == word_mul(g400, g) == power(g, 401)
    assert inverse(g400) == word_inverse(g400)


def test_group_laws():
    rng = random.Random(2)
    for n in (3, 5, 7):
        for _ in range(40):
            g = normalize(random_word(n, rng))
            h = normalize(random_word(n, rng))
            k = normalize(random_word(n, rng))
            assert mul(mul(g, h), k) == mul(g, mul(h, k))
            assert mul(g, inverse(g)).is_identity()
            assert inverse(mul(g, h)) == mul(inverse(h), inverse(g))
    # conjugator composition: conj(conj(g, c1), c2) = conj(g, c2 * c1)
    for n in (3, 5):
        for _ in range(25):
            g = normalize(random_word(n, rng))
            c1 = normalize(random_word(n, rng))
            c2 = normalize(random_word(n, rng))
            assert conjugate(conjugate(g, c1), c2) == conjugate(g, mul(c2, c1))


def test_power():
    rng = random.Random(3)
    for n in (3, 6):
        for _ in range(20):
            g = normalize(random_word(n, rng))
            acc = QuotientElement.identity(n)
            for m in range(6):
                assert power(g, m) == acc
                acc = mul(acc, g)
            assert power(g, -4) == inverse(power(g, 4))
            assert g**3 == power(g, 3)


def test_pure_embedding_is_a_homomorphism():
    rng = random.Random(4)
    n = 5
    for _ in range(30):
        v = PairVector(n, tuple(rng.randint(-4, 4) for _ in pairs(n)))
        w = PairVector(n, tuple(rng.randint(-4, 4) for _ in pairs(n)))
        assert mul(pure(v), pure(w)) == pure(v + w)
        assert inverse(pure(v)) == pure(-v)


def test_conjugation_action_on_pure():
    # g A_P g^-1 = A_{perm(g)^-1(P)}, extended linearly
    rng = random.Random(5)
    for n in (3, 4, 6):
        for _ in range(25):
            g = normalize(random_word(n, rng))
            v = PairVector(n, tuple(rng.randint(-3, 3) for _ in pairs(n)))
            moved = conjugate(pure(v), g)
            assert moved.perm.is_identity()
            assert moved.vec == v.precompose(g.perm)


def test_action_on_basis_table():
    rng = random.Random(6)
    for n in (3, 5):
        for _ in range(20):
            g = normalize(random_word(n, rng))
            for P in pairs(n):
                Q = action_on_basis(g, P)
                assert conjugate(basis_element(n, *P), g) == basis_element(n, *Q)


def test_element_order_examples():
    assert element_order(normalize(BraidWord.from_text(3, "1"))) is INFINITE
    assert element_order(QuotientElement.identity(4)) == 1
    # sigma1 sigma2 cubes to the full twist, so it has infinite order here;
    # the order-3 lift of its cycle is sigma2 sigma1^-1
    assert element_order(normalize(BraidWord.from_text(3, "1 2"))) is INFINITE
    assert element_order(normalize(BraidWord.from_text(3, "2 -1"))) == 3
    assert element_order(pure(PairVector.basis(3, 1, 2))) is INFINITE
    # perm order 2 with a vector the square cannot cancel
    g = normalize(BraidWord.from_text(3, "1 1 1"))
    assert g.perm == Permutation.transposition(3, 1, 2)
    assert element_order(g) is INFINITE


def test_element_order_finite_means_power_is_identity():
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        n = rng.randint(3, 6)
        g = normalize(random_word(n, rng, max_len=8))
        k = element_order(g)
        if k is not INFINITE:
            assert power(g, k).is_identity()
            assert all(not power(g, d).is_identity() for d in range(1, k))
            hits += 1
    assert hits > 10


def test_embed():
    g = normalize(BraidWord.from_text(3, "2 -1"))
    h = embed(g, 6)
    assert h.n == 6
    assert element_order(h) == element_order(g) == 3
    assert h.perm.images[3:] == (4, 5, 6)
    for (i, j) in pairs(3):
        assert h.vec.coefficient(i, j) == g.vec.coefficient(i, j)
    with pytest.raises(ValueError):
        embed(g, 2)


def test_to_word_round_trip():
    rng = random.Random(8)
    for n in (3, 5, 8):
        for _ in range(25):
            g = normalize(random_word(n, rng))
            assert normalize(to_word(g)) == g


def test_json_round_trip():
    rng = random.Random(9)
    for n in (3, 7):
        for _ in range(10):
            g = normalize(random_word(n, rng))
            assert QuotientElement.from_json(g.to_json()) == g


def test_basis_orbits_partition():
    rng = random.Random(10)
    for n in (4, 6):
        for _ in range(15):
            g = normalize(random_word(n, rng))
            orbits = basis_orbits(g)
            seen = [P for orbit in orbits for P in orbit]
            assert sorted(seen) == sorted(pairs(n))
            for orbit in orbits:
                assert orbit[0] == min(orbit)
                for t, P in enumerate(orbit):
                    assert action_on_basis(g, P) == orbit[(t + 1) % len(orbit)]


@settings(max_examples=60)
@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda n: st.lists(
            st.integers(min_value=-(n - 1), max_value=n - 1).filter(bool),
            max_size=10,
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    )
)
def test_normalize_inverse_word(w):
    assert mul(normalize(w), normalize(w.inverse())).is_identity()


def test_str_shows_perm_and_vector():
    g = normalize(BraidWord.from_text(3, "1 1"))
    assert "|" in str(g)
