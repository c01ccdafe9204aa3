"""Permutations: construction, composition order, cycle data."""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from braidcryst.permutation import CycleType, Permutation, all_permutations


def test_identity():
    p = Permutation.identity(4)
    assert p.is_identity()
    assert p.images == (1, 2, 3, 4)
    assert p.cycles() == ()
    assert p.order() == 1
    assert p.fixed_points() == (1, 2, 3, 4)


def test_transposition():
    t = Permutation.transposition(4, 2, 4)
    assert t(2) == 4 and t(4) == 2 and t(1) == 1
    assert t * t == Permutation.identity(4)
    assert t.cycles() == ((2, 4),)


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


def test_composition_is_left_to_right():
    # (p * q)(i) = q(p(i))
    p = Permutation.transposition(3, 1, 2)
    q = Permutation.transposition(3, 2, 3)
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


def test_cycle_type_and_order():
    p = Permutation.from_text(7, "(1,2,3)(4,5,6,7)")
    assert p.cycle_type() == CycleType((4, 3), 7)
    # equality ignores the degree
    assert p.cycle_type() == CycleType((4, 3), 9)
    assert p.order() == 12
    assert p.order() == math.lcm(*(len(c) for c in p.cycles()))


def test_inversions_and_parity():
    assert Permutation.identity(5).inversions() == 0
    w0 = Permutation(tuple(range(5, 0, -1)))
    assert w0.inversions() == 10
    # parity: 0 even, 1 odd
    assert Permutation.transposition(5, 1, 2).parity() == 1
    assert Permutation.from_text(5, "(1,2,3)").parity() == 0
    assert Permutation.from_text(5, "(1,2,3)").inversions() % 2 == 0


def test_pair_action_sorted():
    p = Permutation.from_text(4, "(1,4,2)")
    assert p.pair_action((1, 2)) == (1, 4)
    assert p.pair_action((3, 4)) == (2, 3)


def test_all_permutations_counts():
    for n in range(1, 6):
        seen = list(all_permutations(n))
        assert len(seen) == math.factorial(n)
        assert len(set(seen)) == len(seen)


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
    # equality, hashing and repr are those of the image tuple either way
    rng = random.Random(11)
    for n in (1, 5, 255, 256, 300):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert p.images == tuple(images) and type(p.images) is tuple and p.n == n
        assert hash(p) == hash((p.images,))
        assert repr(p) == f"Permutation(images={tuple(images)!r})"
        assert p == Permutation(tuple(images)) == pickle.loads(pickle.dumps(p))
        assert p * p.inverse() == Permutation.identity(n)
        assert [p(i) for i in range(1, n + 1)] == images
    with pytest.raises(AttributeError):
        p.images = (1,)
    with pytest.raises(ValueError):
        Permutation((1, 1))
