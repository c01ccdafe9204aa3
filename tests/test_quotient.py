"""Normal forms and exact arithmetic in B_n/[P_n,P_n]."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcryst.braidword import (
    BraidWord,
    PairVector,
    full_twist_word,
    pair_images,
    pair_index,
    pair_offsets,
    pairs,
)
from braidcryst.permutation import Permutation
from braidcryst.quotient import (
    INFINITE,
    QuotientElement,
    basis_orbits,
    canonical_lift,
    conjugate,
    element_order,
    embed,
    inverse,
    mul,
    normalize,
    orbit_sums,
    power,
    pure,
    subgroup_conjugator,
    to_word,
)
from braidcryst.zlinalg import solve_integer
from word_oracle import (
    LIFTS,
    closed_cocycle,
    linking_vector,
    reverse_scan_lift,
    word_cocycle,
    word_inverse,
    word_mul,
    word_normalize,
)
from test_zlinalg import run_python


def basis_element(n, i, j):
    """The pure generator ``A[i,j]`` as a quotient element."""
    return pure(PairVector.basis(n, i, j))


def random_word(n, rng, max_len=12):
    letters = [k for k in range(-(n - 1), n) if k]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def test_canonical_lift_basics():
    for n in range(2, 6):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            inversions = sum(p(i) > p(j) for i, j in itertools.combinations(range(1, n + 1), 2))
            w = canonical_lift(p)
            assert all(k > 0 for k in w.letters)
            assert len(w.letters) == inversions
            assert w.permutation() == p
            # positive words of minimal length lift a permutation uniquely,
            # so any section with these properties gives the same element
            alt = reverse_scan_lift(p)
            assert all(k > 0 for k in alt.letters)
            assert len(alt.letters) == inversions
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
        perms = list(map(Permutation, itertools.permutations(range(1, n + 1))))
        canonical, reverse = ({p: lift(p) for p in perms}.__getitem__ for lift in LIFTS)
        elements = [
            QuotientElement(p, PairVector(n, tuple(rng.randint(-3, 3) for _ in pairs(n))))
            for p in perms
        ]
        word_inverses = [(word_inverse(h, canonical), word_inverse(h, reverse)) for h in elements]
        for g in elements:
            assert inverse(g) == word_inverse(g, canonical) == word_inverse(g, reverse)
            for h, (h_canonical, h_reverse) in zip(elements, word_inverses):
                assert mul(g, h) == word_mul(g, h, canonical)
                assert closed_cocycle(g.perm, h.perm) == word_cocycle(g.perm, h.perm, reverse)
                # h g h^-1 by concatenation, under each lift
                hgh = conjugate(g, h)
                assert hgh == word_mul(word_mul(h, g, canonical), h_canonical, canonical)
                assert hgh == word_mul(word_mul(h, g, reverse), h_reverse, reverse)


def random_element(n, rng, bound):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    vec = PairVector(n, [rng.randint(-bound, bound) for _ in range(n * (n - 1) // 2)])
    return QuotientElement(Permutation(tuple(images)), vec)


def test_conjugate_matches_two_products_and_an_inverse():
    # the closed form against c * g * c^-1 built from mul and inverse, with
    # packed (within +-127) and tuple coefficients, and tuple permutation
    # storage at n = 300; a pure g, where the formula is one gather, too
    rng = random.Random(31)
    for n in (2, 3, 8, 16, 64, 300):
        for _ in range(40 if n <= 16 else 3):
            for bound in (3, 127, 10**30):
                g, c = random_element(n, rng, bound), random_element(n, rng, rng.choice((3, 500)))
                assert conjugate(g, c) == mul(mul(c, g), inverse(c))
                assert conjugate(pure(g.vec), c) == mul(mul(c, pure(g.vec)), inverse(c))
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugate(QuotientElement.identity(3), QuotientElement.identity(4))


def test_conjugate_makes_no_product(monkeypatch):
    import braidcryst.quotient as quotient

    rng = random.Random(32)
    cases = [(random_element(n, rng, 200), random_element(n, rng, 200)) for n in (2, 5, 9) for _ in range(5)]
    expected = [conjugate(g, c) for g, c in cases]

    def refuse(*args):
        raise AssertionError("conjugate made a product")

    for name in ("mul", "inverse"):
        monkeypatch.setattr(quotient, name, refuse)
    assert [quotient.conjugate(g, c) for g, c in cases] == expected


def long_word(n, rng, length):
    letters = [k for k in range(-(n - 1), n) if k]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def test_normalize_matches_word_route():
    rng = random.Random(13)
    words = [random_word(n, rng, max_len=4 * n) for n in range(2, 13) for _ in range(60)]
    words += [long_word(n, rng, 8 * n) for n in (16, 32, 64) for _ in range(4)]
    for w in words:
        g = normalize(w)
        for lift in LIFTS:
            assert g == word_normalize(w, lift)


def crossed_pairs(word):
    """The pair positions a word crosses at least once."""
    off, order, crossed = pair_offsets(word.n), list(range(1, word.n + 1)), set()
    for e in word.letters:
        k = abs(e)
        a, b = sorted(order[k - 1:k + 1])
        crossed.add(off[a] + b)
        order[k - 1], order[k] = order[k], order[k - 1]
    return crossed


def test_normalize_reads_only_the_crossed_pairs(monkeypatch):
    import braidcryst.quotient as quotient

    rng = random.Random(37)
    n = 64
    words = [long_word(n, rng, 2 * n) for _ in range(5)]
    expect = [normalize(w) for w in words]
    handed = []

    def counting_pairs(n):
        handed.append(CountingPairs(pairs(n)))
        return handed[-1]

    monkeypatch.setattr(quotient, "pairs", counting_pairs)
    for w, g in zip(words, expect):
        assert normalize(w) == g
        assert 0 < handed[-1].reads <= len(crossed_pairs(w)) <= 2 * n < len(pairs(n))


PLANTED_INVERSE = """
import sys
from braidcryst.braidword import BraidWord, VerificationError
from braidcryst.permutation import Permutation
import braidcryst.quotient as quotient


class Planted(Permutation):
    \"\"\"Its inverse also applies the transposition named on the command line.\"\"\"

    def inverse(self):
        return Permutation.inverse(self) * Permutation.from_text(self.n, sys.argv[2])


quotient.Permutation = Planted
print(sys.flags.optimize)
try:
    quotient.normalize(BraidWord.from_text(4, sys.argv[1]))
except VerificationError as error:
    print(error.args[0] == "odd crossing count left after removing the lift")
"""


@pytest.mark.parametrize("word, swap", [("1", "(3,4)"), ("1 1", "(1,2)")],
                         ids=["inverted-never-crossed", "crossed-even-inverted"])
def test_normalize_refuses_a_planted_inversion(word, swap):
    # "1" crosses {1,2}, which p inverts, so every crossed pair is even and
    # only the count of p's inversions sees the planted {3,4}; "1 1" crosses
    # {1,2} twice, so the planted (1,2) leaves it odd.  Checked under -O too.
    assert run_python("-c", PLANTED_INVERSE, word, swap) == ["0", "True"]
    assert run_python("-O", "-c", PLANTED_INVERSE, word, swap) == ["1", "True"]


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


def binary_power(g, m):
    """Square and multiply on the full exponent: the reference for ``power``,
    which reduces ``m`` modulo the permutation order first."""
    if m < 0:
        return binary_power(inverse(g), -m)
    out, base = QuotientElement.identity(g.n), g
    while m:
        if m & 1:
            out = mul(out, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return out


def test_power_matches_binary_powering_across_three_periods():
    finite = infinite = 0
    for g in formula_elements():
        if g.n > 8:
            continue
        k = g.perm.order()
        for m in range(-3 * k, 3 * k + 1):
            assert power(g, m) == binary_power(g, m)
        is_finite = element_order(g) is not INFINITE
        finite += is_finite
        infinite += not is_finite
    assert finite > 20 and infinite > 20


def test_power_squares_from_g_and_never_multiplies_by_the_identity(monkeypatch):
    # square and multiply from the first factor: bit_length - 1 squarings
    # and popcount - 1 further factors, for every m up to order(perm)
    import braidcryst.quotient as quotient

    operands = []

    def counting_mul(a, b):
        operands.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(quotient, "mul", counting_mul)
    for g in formula_elements():
        if g.n > 8:
            continue
        one = QuotientElement.identity(g.n)
        for m in range(1, g.perm.order() + 1):
            operands.clear()
            assert power(g, m) == binary_power(g, m)
            assert len(operands) == m.bit_length() + bin(m).count("1") - 2
            assert all(one not in pair for pair in operands)


def test_power_with_a_4000_digit_exponent_is_one_more_factor():
    rng = random.Random(40)
    images = list(range(1, 65))
    rng.shuffle(images)
    vec = PairVector(64, [rng.randint(-3, 3) for _ in range(64 * 63 // 2)])
    for g in (normalize(BraidWord(64, tuple(range(1, 64)))),
              QuotientElement(Permutation(tuple(images)), vec)):
        for m in (10**4000 - 1, 10**4000 + 1):
            assert power(g, m) == mul(power(g, m - 1), g)


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
                Q = g.perm.inverse().pair_action(P)
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
    assert g.perm == Permutation.from_cycles(3, [(1, 2)])
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


def formula_elements():
    """Seeded elements for n = 2..9: random words, and planted torsion (a
    conjugated block element, alone and times a pure generator on two of its
    fixed points, which has infinite order)."""
    from braidcryst.torsion import iter_block_specs, torsion_element

    rng = random.Random(21)
    for n in range(2, 10):
        for _ in range(12):
            yield normalize(random_word(n, rng))
        for spec in iter_block_specs(n):
            g = conjugate(torsion_element(spec), normalize(random_word(n, rng)))
            yield g
            fixed = [i for i in range(1, n + 1) if g.perm(i) == i]
            if len(fixed) >= 2:
                yield mul(basis_element(n, *sorted(rng.sample(fixed, 2))), g)


def test_orbit_sums_give_the_power_at_the_permutation_order():
    # 2 * g^k = (k/|O|) * s_O on each pair of each orbit O, for k = order(perm)
    finite = infinite = 0
    for g in formula_elements():
        k = g.perm.order()
        gk = power(g, k)
        assert gk.is_pure()
        orbits, sums = basis_orbits(g), tuple(orbit_sums(g))
        assert [(orbit[0], len(orbit)) for orbit in orbits] == [(P, size) for P, size, _ in sums]
        for orbit, (_, _, s) in zip(orbits, sums):
            assert all(2 * gk.vec.coefficient(*P) == k // len(orbit) * s for P in orbit)
        is_finite = element_order(g) is not INFINITE
        assert is_finite == gk.vec.is_zero()
        if g.n <= 6:
            looped = BraidWord(g.n, to_word(g).letters * k)
            assert is_finite == word_normalize(looped).is_identity()
        finite += is_finite
        infinite += not is_finite
    assert finite > 20 and infinite > 20


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
    # elements on different strand counts do not multiply
    with pytest.raises(ValueError, match="^degree mismatch$"):
        mul(g, embed(g, 4))


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
                    assert g.perm.inverse().pair_action(P) == orbit[(t + 1) % len(orbit)]


def pair_action_walk(g):
    """Orbits walked by ``Permutation.pair_action`` on fresh pair tuples:
    the reference for the index walk behind ``basis_orbits``."""
    act, off, n = g.perm.inverse().pair_action, pair_offsets(g.n), g.n
    seen = [False] * (n * (n - 1) // 2)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            orbit, q = [], (i, j)
            while not seen[off[q[0]] + q[1]]:
                seen[off[q[0]] + q[1]] = True
                orbit.append(q)
                q = act(q)
            if orbit:
                yield tuple(orbit)


def walk_elements():
    """All of S_n for n <= 6 with a zero and a seeded vector, then 30
    seeded elements at each of n = 16, 33, 64."""
    rng = random.Random(19)
    vector = lambda n: PairVector(n, [rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)])
    for n in range(2, 7):
        for p in map(Permutation, itertools.permutations(range(1, n + 1))):
            yield QuotientElement(p, PairVector.zero(n))
            yield QuotientElement(p, vector(n))
    for n in (16, 33, 64):
        for t in range(30):
            if t % 3:
                images = list(range(1, n + 1))
                rng.shuffle(images)
                yield QuotientElement(Permutation(tuple(images)), vector(n))
            else:  # few strands crossed, so many fixed pairs and short orbits
                yield normalize(random_word(n, rng, max_len=n))


def test_index_walk_matches_the_pair_action_walk():
    for g in walk_elements():
        basis, v, p = pairs(g.n), g.vec, g.perm
        expect = tuple(pair_action_walk(g))
        orbits = basis_orbits(g)
        assert orbits == expect
        sums = list(orbit_sums(g))
        assert sums == [
            (orbit[0], len(orbit), sum(2 * v.coefficient(i, j) + (p(i) > p(j)) for i, j in orbit))
            for orbit in expect
        ]
        for orbit in orbits + (tuple(P for P, _, _ in sums),):
            assert all(P is basis[pair_index(g.n, *P)] for P in orbit)


class CountingPairs(tuple):
    """A ``pairs(n)`` tuple that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return tuple.__getitem__(self, k)


def test_orbit_sums_reads_only_the_orbits_it_yields(monkeypatch):
    import braidcryst.quotient as quotient

    handed = []

    def counting_pairs(n):
        handed.append(CountingPairs(pairs(n)))
        return handed[-1]

    monkeypatch.setattr(quotient, "pairs", counting_pairs)
    rng = random.Random(29)
    n = 64
    images = list(range(1, n + 1))
    rng.shuffle(images)
    p = Permutation(tuple(images))
    g = QuotientElement(p, PairVector(n, [rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)]))
    # one entry, the least pair, per orbit yielded; members are stepped
    first, size, _ = next(orbit_sums(g))
    assert handed[-1].reads == 1 and 1 < size < len(pairs(n))
    sums = list(orbit_sums(g))
    assert handed[-1].reads == len(sums) < sum(size for _, size, _ in sums) == len(pairs(n))
    # A[1,2] adds 2 to the sum of the first orbit, and f(p) adds no negative
    # term, so the first sum already decides that the order is infinite
    infinite = QuotientElement(p, PairVector.basis(n, 1, 2))
    assert element_order(infinite) is INFINITE
    assert handed[-1].reads == 1
    # listing members reads each pair once more
    assert sum(map(len, basis_orbits(g))) == handed[-1].reads - len(sums) == len(pairs(n))
    # the pair action is computed per visited pair, never as a whole table
    def no_table(p):
        raise AssertionError("orbit_sums built the whole pair action")

    monkeypatch.setattr(quotient, "pair_images", no_table)
    assert next(orbit_sums(g))[0] == first
    assert element_order(infinite) is INFINITE
    assert sum(map(len, basis_orbits(g))) == len(pairs(n))


def order_shapes(n, rng):
    """The three shapes of element the group_law benchmark orders: an
    even-order permutation with a sparse vector, conjugated block torsion,
    and that torsion times ``A[n-1,n]`` (two of its fixed points)."""
    from braidcryst.torsion import BlockSpec, torsion_element

    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        if p.order() % 2 == 0:
            break
    vec = [0] * (n * (n - 1) // 2)
    for _ in range(max(2, n // 4)):
        vec[rng.randrange(len(vec))] = rng.choice((-2, -1, 1, 2))
    yield QuotientElement(p, PairVector(n, vec))
    blocks, budget = [], n - 2
    while not blocks or (budget >= 3 and rng.random() < 0.6):
        blocks.append(rng.choice([k for k in (3, 5, 7) if k <= budget]))
        budget -= blocks[-1]
    core = torsion_element(BlockSpec(n, tuple(sorted(blocks))))
    c = normalize(long_word(n, rng, n))
    yield conjugate(core, c)
    yield conjugate(mul(basis_element(n, n - 1, n), core), c)


def test_element_order_matches_the_power_on_the_benchmark_shapes():
    rng = random.Random(41)
    orders = []
    for n in (8, 16, 32, 64):
        for _ in range(3):
            for g in order_shapes(n, rng):
                k = element_order(g)
                assert (k is not INFINITE) == power(g, g.perm.order()).is_identity()
                assert k in (INFINITE, g.perm.order())
                orders.append(k)
    assert orders.count(INFINITE) == 2 * len(orders) // 3


def test_element_order_makes_no_product(monkeypatch):
    import braidcryst.quotient as quotient

    elements = list(formula_elements())
    orders = [element_order(g) for g in elements]
    assert INFINITE in orders and any(k is not INFINITE for k in orders)
    calls = []
    for name in ("mul", "power"):
        real = getattr(quotient, name)
        monkeypatch.setattr(quotient, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert [element_order(g) for g in elements] == orders
    assert calls == []


def orbit_roots(n, perms):
    """The least pair position in each pair position's orbit under ``perms``."""
    root = list(range(n * (n - 1) // 2))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for p in perms:
        for i, j in enumerate(pair_images(p)):
            a, b = sorted((find(i), find(j)))
            root[b] = a
    return [find(i) for i in range(len(root))]


def test_pure_conjugator_agrees_with_the_integer_solve():
    # oracle: theta - theta o p_i = t_i - s_i, stacked over the generators
    rng = random.Random(61)
    verdicts = set()
    for trial in range(60):
        n = rng.randint(3, 6)
        sources = [normalize(random_word(n, rng)) for _ in range(rng.randint(1, 2))]
        shift = pure(PairVector(n, [rng.randint(-3, 3) for _ in pairs(n)]))
        targets = [conjugate(s, shift) for s in sources]
        if trial % 2:  # perturb one target: a translate, or a shift of it alone
            i, P = rng.randrange(len(targets)), rng.choice(pairs(n))
            targets[i] = rng.choice([mul(basis_element(n, *P), targets[i]),
                                     conjugate(targets[i], basis_element(n, *P))])
        rows, rhs = [], []
        for s, t in zip(sources, targets):
            for q, image in enumerate(pair_images(s.perm)):
                row = [0] * len(pairs(n))
                row[q] += 1
                row[image] -= 1
                rows.append(row)
            rhs += (t.vec - s.vec).coeffs
        # sources and targets share their permutations, so the least
        # conjugating permutation is the identity and c is A^theta alone
        c = subgroup_conjugator(sources, targets)
        assert (c is None) == (solve_integer(rows, rhs) is None), trial
        verdicts.add((trial % 2, c is None))
        if c is not None:
            assert c.perm.is_identity()
            theta = c.vec
            assert all(conjugate(s, pure(theta)) == t for s, t in zip(sources, targets))
            assert all(theta.coeffs[r] == 0 for r in orbit_roots(n, [s.perm for s in sources]))
    assert verdicts == {(0, False), (1, False), (1, True)}


def test_subgroup_conjugator_decides_finite_tuples():
    # commuting block elements generate a finite group, so every conjugate
    # tuple is reached and None proves that a tuple is not conjugate; a
    # translate of one target has infinite order and is never reached
    from braidcryst.torsion import BlockSpec, abelian_realization

    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(5, 9)
        spec = BlockSpec(n, rng.choice([b for b in [(3,), (5,), (3, 3), (3, 5)] if sum(b) <= n]))
        sources = abelian_realization(spec)
        c = mul(normalize(random_word(n, rng)), pure(PairVector(n, [rng.randint(-2, 2) for _ in pairs(n)])))
        targets = [conjugate(s, c) for s in sources]
        found = subgroup_conjugator(sources, targets)
        assert found is not None
        assert all(conjugate(s, found) == t for s, t in zip(sources, targets))
        i, P = rng.randrange(len(targets)), rng.choice(pairs(n))
        targets[i] = mul(basis_element(n, *P), targets[i])
        assert subgroup_conjugator(sources, targets) is None


def test_subgroup_conjugator_none_is_no_proof_for_infinite_sources():
    # A[1,2] and A[2,3] are conjugate by a lift of (1,3), but the least
    # permutation carrying the identity onto itself is the identity, and
    # no lattice vector moves a pure element
    g, h = basis_element(3, 1, 2), basis_element(3, 2, 3)
    assert conjugate(g, normalize(canonical_lift(Permutation.from_text(3, "(1,3)")))) == h
    assert subgroup_conjugator((g,), (h,)) is None


def test_subgroup_conjugator_rejects_mismatched_input():
    g = normalize(BraidWord.from_text(3, "1 2"))
    assert subgroup_conjugator((g,), (normalize(BraidWord.from_text(3, "1")),)) is None
    for sources, targets in [((g,), ()), ((), ()), ((g,), (embed(g, 4),))]:
        with pytest.raises(ValueError):
            subgroup_conjugator(sources, targets)


def test_pure_conjugator_check_survives_optimize():
    script = """
import sys
import braidcryst.quotient as q
from braidcryst.braidword import BraidWord, PairVector, VerificationError
g = q.normalize(BraidWord.from_text(4, "1 2 -3"))
h = q.conjugate(g, q.pure(PairVector.basis(4, 1, 3)))
print(sys.flags.optimize, q.subgroup_conjugator((g,), (h,)) is not None)
q.conjugate = lambda g, c: g
try:
    q.subgroup_conjugator((g,), (h,))
except VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "True", "raised"]


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
