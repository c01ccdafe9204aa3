"""Braid words, linking vectors, pure generator words."""

import itertools
import pickle
import random
import sys

import pytest

from braidcryst.braidword import (
    BraidWord,
    PairVector,
    full_twist_word,
    pair_index,
    pairs,
    pure_generator_word,
    pure_word,
)
from braidcryst.permutation import Permutation
from word_oracle import NotPureError, linking_vector


def test_pairs_lexicographic():
    assert pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for n in range(2, 9):
        ps = pairs(n)
        assert ps is pairs(n)  # cached: every caller shares the tuple
        assert len(ps) == n * (n - 1) // 2
        for idx, (i, j) in enumerate(ps):
            assert pair_index(n, i, j) == idx
    with pytest.raises(ValueError):
        pair_index(4, 3, 2)  # strict about ordering
    with pytest.raises(ValueError):
        pair_index(4, 2, 2)


def test_word_parsing_and_product():
    w = BraidWord.from_text(4, "2 -1 3")
    assert w.letters == (2, -1, 3)
    assert str(w) == "2 -1 3"
    assert BraidWord.from_text(4, "").letters == ()
    v = BraidWord.from_text(4, "-3")
    assert (w * v).letters == (2, -1, 3, -3)
    assert w.inverse().letters == (-3, 1, -2)


def test_word_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord.from_text(3, "0")


def test_word_takes_int_letters_and_strand_count_only():
    # a float or bool letter used to be stored, print as "1.0 2", and fail
    # later in permutation() with an unrelated list-index TypeError
    for letters in ((1.0, 2), (True, 2), (1, "2"), (1, None)):
        with pytest.raises(TypeError, match="braid word letters must be integers"):
            BraidWord(3, letters)
    for n in (3.0, True, "3", None):
        with pytest.raises(TypeError, match="strand count must be an integer"):
            BraidWord(n, (1,))
    w = BraidWord(3, (1, -2))
    assert str(w) == "1 -2" and w.permutation() == Permutation.from_text(3, "(1,3,2)")


def test_word_permutation_first_letter_acts_first():
    w = BraidWord.from_text(3, "1 2")
    assert w.permutation() == Permutation.from_text(3, "(1,3,2)")
    assert BraidWord.from_text(3, "2 1").permutation() == Permutation.from_text(
        3, "(1,2,3)"
    )


def test_linking_vector_examples():
    assert linking_vector(BraidWord.from_text(3, "1 1")) == PairVector.basis(3, 1, 2)
    # sigma2 sigma1^2 sigma2^-1 links strands 1 and 3
    assert linking_vector(BraidWord.from_text(3, "2 1 1 -2")) == PairVector.basis(
        3, 1, 3
    )
    assert linking_vector(BraidWord.from_text(4, "")).is_zero()
    assert linking_vector(BraidWord.from_text(3, "1 -1")).is_zero()


def test_linking_vector_requires_pure():
    with pytest.raises(NotPureError):
        linking_vector(BraidWord.from_text(3, "1"))


def test_pure_generator_words():
    for n in range(2, 7):
        for (i, j) in pairs(n):
            w = pure_generator_word(n, i, j)
            assert w.permutation().is_identity()
            assert linking_vector(w) == PairVector.basis(n, i, j)


def test_generator_conjugation_table():
    # sigma_k A_{i,j} sigma_k^-1 = A_{(k,k+1)(i,j)} in the quotient; the
    # linking sweep sees exactly that
    for n in range(3, 7):
        for k in range(1, n):
            tau = Permutation.from_cycles(n, [(k, k + 1)])
            for (i, j) in pairs(n):
                conj = (
                    BraidWord(n, (k,))
                    * pure_generator_word(n, i, j)
                    * BraidWord(n, (-k,))
                )
                assert linking_vector(conj) == PairVector.basis(
                    n, *tau.pair_action((i, j))
                )


def test_linking_is_additive_on_pure_words():
    rng = random.Random(5)
    n = 5
    pure_words = [pure_generator_word(n, i, j) for (i, j) in pairs(n)]
    for _ in range(30):
        a = rng.choice(pure_words)
        b = rng.choice(pure_words)
        assert linking_vector(a * b) == linking_vector(a) + linking_vector(b)
        assert linking_vector(a.inverse()) == -linking_vector(a)


def test_pure_word_round_trip():
    rng = random.Random(9)
    for n in range(2, 6):
        for _ in range(20):
            v = PairVector(n, tuple(rng.randint(-3, 3) for _ in pairs(n)))
            w = pure_word(v)
            assert w.permutation().is_identity()
            assert linking_vector(w) == v


def test_full_twist_word():
    for n in range(2, 7):
        w = full_twist_word(n)
        assert w.permutation().is_identity()
        assert linking_vector(w) == PairVector(n, tuple(1 for _ in pairs(n)))


def test_crossing_counts_allocates_the_pair_list_first(monkeypatch):
    # a strand count too large for the pair list fails there at once,
    # before the offsets and the strand order are built
    import braidcryst.braidword as braidword

    def refuse(n):
        raise AssertionError("pair_offsets ran before the pair list")

    monkeypatch.setattr(braidword, "pair_offsets", refuse)
    with pytest.raises(MemoryError):
        braidword.crossing_counts(BraidWord(10**8, (1,)))


def test_pairs_allocates_the_pair_list_first(monkeypatch):
    # a strand count too large for the pair list fails there at once,
    # before any pair tuple is built
    import braidcryst.braidword as braidword

    def refuse(items):
        raise AssertionError("pairs were built before the pair list")

    monkeypatch.setattr(braidword, "tuple", refuse, raising=False)
    with pytest.raises(MemoryError):
        braidword.pairs(10**8)


def test_pair_vector_arithmetic():
    v = PairVector.from_pairs(4, {(1, 2): 2, (3, 4): -1})
    w = PairVector.basis(4, 1, 2)
    assert v.coefficient(1, 2) == 2
    assert (v - w).coefficient(1, 2) == 1
    assert v.scaled(3).coefficient(3, 4) == -3
    assert (-v + v).is_zero()
    assert set(v.support()) == {(1, 2), (3, 4)}


def test_pair_vector_precompose():
    # precompose(p)[Q] = self[p(Q)]; this is the coefficient move matching
    # conjugation on the pure part
    p = Permutation.from_text(3, "(1,2,3)")
    v = PairVector.from_pairs(3, {(1, 2): 5})
    moved = v.precompose(p)
    assert moved.coefficient(1, 3) == 5  # p sends {1,3} to {1,2}
    assert sum(abs(c) for c in moved.coeffs) == 5


def test_pair_vector_json_round_trip():
    v = PairVector.from_pairs(5, {(2, 5): -4, (1, 3): 2})
    assert PairVector.from_json(5, v.to_json()) == v


def test_pair_vector_from_json_is_strict():
    for bad in ([1], 5, None, "1,2", {"1,2": 1.7}, {"1,2": True}, {"1,2": "1"},
                {"1,2": None}, {"1-2": 1}, {"1,2,3": 1}, {" 1,2": 1}, {"2,1": 1}, {"1,6": 1}):
        with pytest.raises(ValueError):
            PairVector.from_json(5, bad)
    assert PairVector.from_json(5, {"1,2": 10**30}).coefficient(1, 2) == 10**30
    with pytest.raises(ValueError, match=r"'01,2' names the pair \(1,2\) a second time"):
        PairVector.from_json(5, {"1,2": 1, "01,2": 0})


def test_pair_vector_storage_boundaries():
    # entries in [-128, 127] are packed as signed bytes, anything else is
    # kept as the exact tuple; every route to the same values must give an
    # equal vector with an equal hash
    n = 4
    for value in (-128, 127, 128, -129, 10**30):
        routes = [
            PairVector(n, (value, 0, 0, 0, 0, 0)),
            PairVector(n, [value, 0, 0, 0, 0, 0]),
            PairVector.from_pairs(n, {(1, 2): value}),
            PairVector.basis(n, 1, 2).scaled(value),
            PairVector.from_pairs(n, {(1, 2): value - 1}) + PairVector.basis(n, 1, 2),
            -PairVector.from_pairs(n, {(1, 2): -value}),
            PairVector.from_json(n, {"1,2": value}),
            pickle.loads(pickle.dumps(PairVector(n, (value, 0, 0, 0, 0, 0)))),
        ]
        for v in routes:
            assert v == routes[0]
            assert hash(v) == hash(routes[0]) == hash((n, v._data))
            assert type(v.coeffs) is tuple and all(type(c) is int for c in v.coeffs)
            assert v.coeffs == (value, 0, 0, 0, 0, 0)
            assert v.coefficient(1, 2) == value and v.coefficient(3, 4) == 0
            assert repr(v) == f"PairVector(n=4, coeffs=({value}, 0, 0, 0, 0, 0))"
            assert not v.is_zero() and (v - v).is_zero()
        assert (type(routes[0]._data) is bytes) == (-128 <= value <= 127)
    with pytest.raises(AttributeError):
        routes[0].n = 5
    with pytest.raises(ValueError):
        PairVector(n, (0,) * 5)
    with pytest.raises(TypeError):
        PairVector(3, (1.5, 0, 0))
    with pytest.raises(TypeError):
        PairVector(3, (1.5, 200, 0))


def test_small_entry_vector_storage_size():
    n = 64
    v = PairVector(n, tuple(k % 5 - 2 for k in range(n * (n - 1) // 2)))
    assert sys.getsizeof(v._data) <= 2200
    assert v.coeffs == tuple(k % 5 - 2 for k in range(n * (n - 1) // 2))
