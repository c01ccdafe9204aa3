"""The immutable value classes: fields, equality, hashing, repr, pickling."""

import pickle
import re

import pytest

from braidcryst.braidword import BraidWord, PairVector
from braidcryst.frobenius import FrobeniusWitness, SolutionFamily, StandardizationResult
from braidcryst.orbits import OrbitTable
from braidcryst.permutation import Permutation
from braidcryst.quotient import QuotientElement
from braidcryst.subgroups import HolonomySubgroup
from braidcryst.torsion import BlockSpec

E = QuotientElement.identity(2)
E_TEXT = "QuotientElement(perm=Permutation(images=(1, 2)), vec=PairVector(n=2, coeffs=(0,)))"
H = HolonomySubgroup(3, (Permutation((2, 3, 1)),))
H_TEXT = "HolonomySubgroup(n=3, generators=(Permutation(images=(2, 3, 1)),))"

# class, fields of an instance, its repr, one field changed, constructions
# that must fail with the given error text; the repr strings are those the
# earlier dataclass versions of these classes printed
CASES = [
    (Permutation, {"images": (2, 3, 1)}, "Permutation(images=(2, 3, 1))", {"images": (1, 2, 3)},
     [({"images": (1, 1, 2)}, "not a permutation of 1..3: (1, 1, 2)")]),
    # coefficients past a signed byte are stored as a tuple, not as bytes
    (PairVector, {"n": 3, "coeffs": (1, 0, -200)}, "PairVector(n=3, coeffs=(1, 0, -200))",
     {"coeffs": (0, 0, 0)},
     [({"n": 3, "coeffs": (1,)}, "coefficient count does not match n")]),
    (BraidWord, {"n": 3, "letters": (1, -2)}, "BraidWord(n=3, letters=(1, -2))",
     {"letters": (1,)},
     [({"n": 1, "letters": ()}, "need at least 2 strands"),
      ({"n": 3, "letters": (3,)}, "letter 3 out of range for n=3"),
      ({"n": 3, "letters": (0,)}, "letter 0 out of range for n=3")]),
    (QuotientElement, {"perm": Permutation((2, 1, 3)), "vec": PairVector(3, (1, 0, -1))},
     "QuotientElement(perm=Permutation(images=(2, 1, 3)), vec=PairVector(n=3, coeffs=(1, 0, -1)))",
     {"vec": PairVector.zero(3)},
     [({"perm": Permutation((2, 1)), "vec": PairVector.zero(3)},
       "degree mismatch between permutation and vector")]),
    (BlockSpec, {"n": 7, "blocks": (3, 3)}, "BlockSpec(n=7, blocks=(3, 3))", {"n": 8},
     [({"n": 7, "blocks": (4,)}, "block length 4 is not an odd integer >= 3"),
      ({"n": 9, "blocks": (5, 3)}, "blocks must be sorted ascending"),
      ({"n": 5, "blocks": (3, 3)}, "blocks do not fit in the strand count")]),
    (OrbitTable, {"orbits": (((1, 2),),)}, "OrbitTable(orbits=(((1, 2),),))", {"orbits": ()}, []),
    (HolonomySubgroup, {"n": 3, "generators": (Permutation((2, 3, 1)),)}, H_TEXT,
     {"generators": ()},
     [({"n": 4, "generators": (Permutation((2, 1)),)}, "degree mismatch among generators")]),
    (SolutionFamily, {"particular": PairVector.zero(2), "kernel": (PairVector(2, (1,)),)},
     "SolutionFamily(particular=PairVector(n=2, coeffs=(0,)), kernel=(PairVector(n=2, coeffs=(1,)),))",
     {"kernel": ()}, []),
    (FrobeniusWitness, {"x": E, "v": E, "certificate": (("x^3", True),)},
     f"FrobeniusWitness(x={E_TEXT}, v={E_TEXT}, certificate=(('x^3', True),))",
     {"certificate": ()}, []),
    (StandardizationResult,
     {"conjugator": E, "power": 1},
     f"StandardizationResult(conjugator={E_TEXT}, power=1)",
     {"power": 2}, []),
]


@pytest.mark.parametrize("cls, fields, text, changed, invalid", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_behaviour(cls, fields, text, changed, invalid):
    value = cls(**fields)
    assert repr(value) == text
    assert cls(*fields.values()) == value
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())

    # equality and hashing go by the storage, the class's own slots, one
    # slot hashing as itself
    twin = cls(**fields)
    assert twin == value and not twin != value
    storage = tuple(getattr(value, name) for name in vars(cls)["__slots__"])
    assert hash(twin) == hash(value) == hash(storage if len(storage) > 1 else storage[0])
    other = cls(**{**fields, **changed})
    assert other != value
    assert value != tuple(fields.values()) and value != object()

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # neither a field nor the slot that stores it can be deleted
    for name in {*fields, *cls.__slots__}:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text

    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and repr(restored) == text

    for bad, message in invalid:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**bad)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])


@pytest.mark.parametrize(
    "cls",
    [BlockSpec, OrbitTable, StandardizationResult, FrobeniusWitness, SolutionFamily, HolonomySubgroup],
    ids=lambda cls: cls.__name__,
)
def test_value_class_has_no_instance_dict(cls):
    # a caller that keeps many results pays no instance dict for each
    fields = next(case[1] for case in CASES if case[0] is cls)
    value = cls(**fields)
    assert cls.__slots__ == cls._fields
    assert not hasattr(value, "__dict__")


def test_equality_and_hashing_never_decode_storage(monkeypatch):
    # the compact values compare and hash their storage as it is: with the
    # decoding properties broken, ==, hash and set membership still work
    p, v = Permutation((2, 3, 1)), PairVector(3, (1, 0, -1))
    g = QuotientElement(Permutation((2, 1, 3)), PairVector(3, (1, 0, -200)))
    triples = [
        (p, Permutation((2, 3, 1)), Permutation((1, 3, 2))),
        (v, PairVector(3, [1, 0, -1]), PairVector(3, (1, 0, 1))),
        (g, QuotientElement(Permutation((2, 1, 3)), PairVector(3, (1, 0, -200))),
         QuotientElement(Permutation((2, 1, 3)), PairVector(3, (1, 0, 200)))),
    ]

    def decode(self):
        raise AssertionError("equality decoded the storage")

    monkeypatch.setattr(Permutation, "images", property(decode))
    monkeypatch.setattr(PairVector, "coeffs", property(decode))
    for value, twin, other in triples:
        assert value == twin and value != other
        assert hash(value) == hash(twin)
        assert twin in {value} and other not in {value}
