"""Permutations: construction, composition order, cycle data."""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from braidcryst.permutation import (
    Permutation,
    StabilizerChain,
    closure,
    conjugating_permutation,
    parse_int,
)
from holonomy_oracle import generator_sets


def test_identity():
    p = Permutation.identity(4)
    assert p.is_identity()
    assert p.images == (1, 2, 3, 4)
    assert p.cycles() == ()
    assert p.order() == 1


def test_transposition():
    t = Permutation.from_cycles(4, [(2, 4)])
    assert t(2) == 4 and t(4) == 2 and t(1) == 1
    assert t * t == Permutation.identity(4)
    assert t.cycles() == ((2, 4),)


def test_non_integer_images_are_rejected_at_every_degree():
    # images are bytes below 256 points and a tuple from there on; both stores
    # refuse 1.0, which equals 1 and so passes the bijection check
    for n in (5, 255, 256, 300):
        with pytest.raises(TypeError):
            Permutation(tuple([1.0] + list(range(2, n + 1))))
        assert Permutation(tuple(range(1, n + 1)))(1) == 1


def test_from_cycles_and_text():
    p = Permutation.from_cycles(5, [(1, 3, 2)])
    assert p(1) == 3 and p(3) == 2 and p(2) == 1
    assert p == Permutation.from_text(5, "(1,3,2)")
    assert Permutation.from_text(3, "()").is_identity()
    q = Permutation.from_text(7, "(1,2,3)(4,5,6)")
    assert q.cycles() == ((1, 2, 3), (4, 5, 6))


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.from_text(3, "(1,4)")
    with pytest.raises(ValueError):
        Permutation.from_text(3, "(1,1)")
    with pytest.raises(ValueError, match="empty cycle"):
        Permutation.from_cycles(3, [()])


def test_text_integers_are_ascii_digits():
    from braidcryst.braidword import BraidWord, PairVector
    from braidcryst.torsion import BlockSpec

    assert [parse_int(t) for t in ("0", "7", "-12", "007")] == [0, 7, -12, 7]
    for text in ("", "-", "+1", "1_0", " 1", "1 ", "1.0", "\u0662", "1\n", "\uff11"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_int(text)
    # every text parser reads its integers by that one rule
    assert BlockSpec.from_text(7, " 3 , 3 ").blocks == (3, 3)
    assert Permutation.from_text(3, "( 1 , 3 )") == Permutation((3, 2, 1))
    for parse in (
        lambda: BraidWord.from_text(3, "1_0"),
        lambda: BraidWord.from_text(3, "+1 \u0662"),
        lambda: BlockSpec.from_text(7, " 3 , +3 "),
        lambda: Permutation.from_text(5, "(1,\u0662,3)"),
        lambda: PairVector.from_json(3, {"\u0661,\u0662": 1}),
        lambda: PairVector.from_json(3, {"1,+2": 1}),
    ):
        with pytest.raises(ValueError):
            parse()


def test_composition_is_left_to_right():
    # (p * q)(i) = q(p(i))
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert (p * q)(1) == 3
    assert (p * q).cycles() == ((1, 3, 2),)


def test_conjugation_relabels_by_inverse():
    # c * p * c^-1 has cycles of p with entries relabeled by c^-1
    c = Permutation.from_text(4, "(1,2,3,4)")
    p = Permutation.from_text(4, "(1,2)")
    conj = c * p * c.inverse()
    assert conj == Permutation.from_text(4, "(1,4)")


def test_pow_matches_repeated_product():
    p = Permutation.from_text(6, "(1,2,3)(4,5)")
    acc = Permutation.identity(6)
    for k in range(8):
        assert p**k == acc
        acc = acc * p
    assert p**-1 == p.inverse()
    assert p**-3 == (p.inverse()) ** 3
    # the exponent only matters modulo each cycle's length; order(p) is 6
    assert p ** (10**20) == p ** (10**20 % 6) and p ** -(10**20) == p ** (-(10**20) % 6)


def test_cycle_type_and_order():
    p = Permutation.from_text(7, "(1,2,3)(4,5,6,7)")
    assert p.cycle_type() == (4, 3)
    # the cycle type ignores the degree
    assert Permutation.from_text(9, "(1,2,3)(4,5,6,7)").cycle_type() == (4, 3)
    assert p.order() == 12
    assert p.order() == math.lcm(*(len(c) for c in p.cycles()))


def test_inversions_and_parity():
    def inversions(p):
        return sum(p(i) > p(j) for i, j in itertools.combinations(range(1, p.n + 1), 2))

    assert inversions(Permutation.identity(5)) == 0
    w0 = Permutation(tuple(range(5, 0, -1)))
    assert inversions(w0) == 10
    # parity: 0 even, 1 odd, and the parity of the inversion count
    assert Permutation.from_cycles(5, [(1, 2)]).parity() == 1
    assert Permutation.from_text(5, "(1,2,3)").parity() == 0
    for p in map(Permutation, itertools.permutations(range(1, 6))):
        assert p.parity() == inversions(p) % 2


def test_pair_action_sorted():
    p = Permutation.from_text(4, "(1,4,2)")
    assert p.pair_action((1, 2)) == (1, 4)
    assert p.pair_action((3, 4)) == (2, 3)


def least_conjugator_by_listing(sources, targets):
    """Oracle: the first ``s`` of S_n, listed in lexicographic image order,
    with ``s a s^-1 == b`` for every pair."""
    n = sources[0].n
    for images in itertools.permutations(range(1, n + 1)):
        s = Permutation(images)
        if all(s * a * s.inverse() == b for a, b in zip(sources, targets)):
            return s
    return None


def test_conjugating_permutation_is_the_least_over_all_of_s_n():
    # sources are random permutations and their powers (so fixed points and
    # repeated cycle lengths occur); targets are a relabeling of the
    # sources, a relabeling with one entry replaced, or random
    rng = random.Random(71)
    verdicts = {True: 0, False: 0}
    for n in range(1, 7):
        for _ in range(150):
            def draw():
                return Permutation(tuple(rng.sample(range(1, n + 1), n))) ** rng.randint(1, 3)

            sources = [draw() for _ in range(rng.randint(1, 3))]
            u, kind = draw(), rng.randrange(3)
            targets = [draw() for _ in sources] if kind == 2 else [u * a * u.inverse() for a in sources]
            if kind == 1:
                targets[rng.randrange(len(targets))] = draw()
            expected = least_conjugator_by_listing(sources, targets)
            assert conjugating_permutation(sources, targets) == expected, (sources, targets)
            verdicts[expected is None] += 1
    assert min(verdicts.values()) > 200


def test_conjugating_permutation_rejects_mismatched_input():
    a = Permutation.from_text(3, "(1,2,3)")
    e4 = Permutation.identity(4)
    for sources, targets in [((), ()), ((a,), ()), ((a,), (a, a)), ((a,), (e4,)), ((a, e4), (a, a))]:
        with pytest.raises(ValueError):
            conjugating_permutation(sources, targets)


perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda im: Permutation(tuple(im))
    )
)


@given(perms)
def test_inverse_law(p):
    e = Permutation.identity(p.n)
    assert p * p.inverse() == e
    assert p.inverse() * p == e


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.permutations(list(range(1, n + 1))),
        st.permutations(list(range(1, n + 1))),
    )
))
def test_associativity(triple):
    p, q, r = (Permutation(tuple(im)) for im in triple)
    assert (p * q) * r == p * (q * r)


@given(perms)
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()


def test_cycles_canonical_ordering():
    rng = random.Random(11)
    for _ in range(50):
        images = list(range(1, 8))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        cyc = p.cycles()
        assert all(len(c) >= 2 for c in cyc)
        assert all(c[0] == min(c) for c in cyc)
        assert list(cyc) == sorted(cyc, key=lambda c: c[0])
        rebuilt = Permutation.from_cycles(7, cyc)
        assert rebuilt == p


def walked_cycles(images):
    """Nontrivial cycles of the images tuple, walked with a set: the
    reference for ``Permutation.cycles``."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start not in seen and images[start - 1] != start:
            cycle, a = [], start
            while a not in seen:
                seen.add(a)
                cycle.append(a)
                a = images[a - 1]
            out.append(tuple(cycle))
    return tuple(out)


def test_cycle_data_matches_a_walk_over_the_images():
    rng = random.Random(31)
    perms = [p for n in range(1, 7) for p in itertools.permutations(range(1, n + 1))]
    for _ in range(40):  # from 256 points the images are a tuple, not bytes
        images = list(range(1, 301))
        rng.shuffle(images)
        perms.append(tuple(images))
    for images in perms:
        p, cycles = Permutation(images), walked_cycles(images)
        assert p.cycles() == cycles
        lengths = [len(c) for c in cycles]
        assert p.order() == math.lcm(1, *lengths)
        assert p.cycle_type() == tuple(sorted(lengths, reverse=True))
        assert p.parity() == sum(a > b for a, b in itertools.combinations(images, 2)) % 2
        assert str(p) == ("".join("(" + ",".join(map(str, c)) + ")" for c in cycles) or "()")
    assert type(Permutation(perms[-1])._images) is tuple


def test_pair_action_is_an_action():
    rng = random.Random(3)
    for _ in range(40):
        a = list(range(1, 6))
        b = list(range(1, 6))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        for pair in itertools.combinations(range(1, 6), 2):
            assert (p * q).pair_action(pair) == q.pair_action(p.pair_action(pair))


def test_storage_keeps_tuple_semantics():
    # images are packed as bytes below 256 points and kept as a tuple above;
    # repr is that of the image tuple either way, and equality and hashing
    # go by the storage, whose type the degree fixes
    rng = random.Random(11)
    for n in (1, 5, 255, 256, 300):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert p.images == tuple(images) and type(p.images) is tuple and p.n == n
        assert type(p._images) is (bytes if n < 256 else tuple)
        assert hash(p) == hash(p._images) == hash(bytes(images) if n < 256 else tuple(images))
        assert repr(p) == f"Permutation(images={tuple(images)!r})"
        assert p == Permutation(tuple(images)) == pickle.loads(pickle.dumps(p))
        assert p * p.inverse() == Permutation.identity(n)
        assert [p(i) for i in range(1, n + 1)] == images
    with pytest.raises(AttributeError):
        p.images = (1,)
    with pytest.raises(ValueError):
        Permutation((1, 1))


def sympy_order(n, gens):
    from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

    if not gens:
        return 1
    group = PermutationGroup([SympyPermutation([i - 1 for i in g.images], size=n) for g in gens])
    return int(group.order())


def full_cycle(n):
    return Permutation(tuple(range(2, n + 1)) + (1,))


def test_chain_order_matches_sympy_and_closure():
    # sympy's PermutationGroup.order() is a test-only oracle
    sets = generator_sets(23, 300)
    for n, gens in sets:
        order = StabilizerChain(n, gens).order()
        assert order == sympy_order(n, gens) == len(closure(Permutation.identity(n), gens))
    assert len({StabilizerChain(n, gens).order() for n, gens in sets}) >= 12


def test_chain_order_of_large_groups_matches_sympy():
    def sylow_two(n):
        # (1,2), (1,3)(2,4), (1,5)(2,6)(3,7)(4,8), ...: a Sylow 2-subgroup of S_n for n a power of 2
        gens, b = [], 1
        while 2 * b <= n:
            gens.append(Permutation.from_cycles(n, [(i, i + b) for i in range(1, b + 1)]))
            b *= 2
        return gens

    rng = random.Random(12)
    cases = [
        (11, [full_cycle(11), Permutation.from_cycles(11, [(1, 2)])]),
        (16, [full_cycle(16), Permutation.from_cycles(16, [(1, 2)])]),
        (13, [full_cycle(13), Permutation.from_text(13, "(1,2,3)")]),
        (16, sylow_two(16)),
        (32, sylow_two(32)),
        (12, [Permutation.from_text(12, "(1,2,3)(4,5,6)(7,8,9)(10,11,12)"),
              Permutation.from_text(12, "(1,4,7,10)(2,5,8,11)(3,6,9,12)")]),
        (300, tuple_images_generators()),
    ]
    for _ in range(20):
        n = rng.randint(10, 14)
        cases.append((n, [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2)]))
    for n, gens in cases:
        assert StabilizerChain(n, gens).order() == sympy_order(n, gens)
    assert StabilizerChain(11, cases[0][1]).order() == math.factorial(11) == 39916800
    assert StabilizerChain(32, sylow_two(32)).order() == 2**31


def tuple_images_generators():
    # from 256 points on the chain stores tuples instead of bytes
    return [Permutation.from_text(300, "(1,2,3)(298,299)"), Permutation.from_text(300, "(3,300,150)")]


def test_chain_membership_on_tuple_images():
    gens = tuple_images_generators()
    chain = StabilizerChain(300, gens)
    listed = closure(Permutation.identity(300), gens)
    assert len(listed) == chain.order()
    assert all(p in chain for p in listed)
    rng = random.Random(4)
    moved = [1, 2, 3, 150, 298, 299, 300]
    for _ in range(200):
        images = list(range(1, 301))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a - 1] = b
        p = Permutation(tuple(images))
        assert (p in chain) == (p in listed)


def test_chain_random_elements_are_uniform_members():
    gens = [Permutation.from_text(4, "(1,2,3,4)"), Permutation.from_text(4, "(1,3)")]
    chain = StabilizerChain(4, gens)
    rng = random.Random(3)
    draws = [chain.random_element(rng) for _ in range(800)]
    assert all(p in chain for p in draws)
    counts = {p: draws.count(p) for p in set(draws)}
    assert len(counts) == 8 and min(counts.values()) >= 60


def test_chain_of_no_generators_is_trivial():
    for gens in ([], [Permutation.identity(5)]):
        chain = StabilizerChain(5, gens)
        assert chain.order() == 1 and chain.base == []
        assert Permutation.identity(5) in chain
        assert Permutation.from_cycles(5, [(1, 2)]) not in chain
    with pytest.raises(ValueError):
        StabilizerChain(4, [Permutation.identity(5)])

