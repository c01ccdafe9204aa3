"""The order-21 Frobenius subgroup of the seven-strand quotient."""

import itertools
import random

import pytest

from braidcryst.braidword import BraidWord, PairVector, pair_images, pair_index, pairs
from braidcryst.frobenius import (
    NotASolution,
    NotFrobenius,
    StandardizationResult,
    X_WORD,
    Y_WORD,
    build_frobenius,
    build_xy,
    conjugator_between,
    default_offset,
    defect,
    family_member,
    recover_parameters,
    reference_group,
    reference_pair,
    solve_family,
    standardize_frobenius,
    subgroup_closure,
)
from braidcryst.permutation import Permutation, closure
from braidcryst.quotient import (
    QuotientElement,
    basis_orbits,
    conjugate,
    element_order,
    inverse,
    mul,
    normalize,
    orbit_sums,
    power,
    pure,
    subgroup_conjugator,
)
from braidcryst.torsion import BlockSpec, torsion_element
from braidcryst.zlinalg import mat_vec, row_lattice_hnf, solve_integer
from test_zlinalg import run_python

# the permutations of the two seed words, x and y
BETA = Permutation.from_text(7, "(1,2,3)(4,5,6)")
ALPHA = Permutation.from_text(7, "(1,3,4,2,5,6,7)")


DEFECT_PLUS = [(1, 2), (1, 6), (1, 7), (4, 7)]
DEFECT_MINUS = [(2, 4), (2, 6), (2, 7), (4, 6)]


def repair_system() -> tuple[list[list[int]], list[int]]:
    """The repair relations as an integer system ``M N = rhs`` in the 21
    coefficients of N: one conjugation equation per pair, one sum per
    y-orbit.  An oracle for the family :func:`solve_family` writes down."""
    x, y = build_xy()
    d = defect(x, y)
    alpha, beta = pair_images(ALPHA), pair_images(BETA)
    rows: list[list[int]] = []
    rhs: list[int] = []
    # x (A^N y) x^-1 = (A^N y)^2 reduces to N[beta Q] + D[Q] = N[Q] + N[alpha Q]
    for q, c in enumerate(d.coeffs):
        row = [0] * len(alpha)
        row[q] += 1
        row[alpha[q]] += 1
        row[beta[q]] -= 1
        rows.append(row)
        rhs.append(c)
    # (A^N y)^7 = 1 reduces to 2 * (N-sum over O) = -s_O on each y-orbit O
    for orbit, (_, _, s) in zip(basis_orbits(y), orbit_sums(y)):
        row = [0] * len(alpha)
        for p in orbit:
            row[pair_index(7, *p)] = 1
        rows.append(row)
        rhs.append(-s // 2)
    return rows, rhs


def kernel_rows(family):
    return [list(k.coeffs) for k in family.kernel]


def test_generator_words_and_permutations():
    x, y = build_xy()
    assert X_WORD == "2 -1 5 -4"
    assert Y_WORD == "2 3 6 5 4 -3 -2 -1 -3 -2"
    assert x.perm == BETA and y.perm == ALPHA
    assert BETA.cycles() == ((1, 2, 3), (4, 5, 6))
    assert ALPHA.cycles() == ((1, 3, 4, 2, 5, 6, 7),)
    assert x == torsion_element(BlockSpec(7, (3, 3)))
    assert element_order(x) == 3


def test_beta_conjugates_alpha_to_its_square():
    assert BETA * ALPHA * BETA.inverse() == ALPHA * ALPHA


def test_defect_vector_frozen():
    x, y = build_xy()
    D = defect(x, y)
    expect = PairVector.from_pairs(
        7, {**{P: 1 for P in DEFECT_PLUS}, **{P: -1 for P in DEFECT_MINUS}}
    )
    assert D == expect
    # and y is not yet an order-7 partner: x y x^-1 != y^2 exactly by D
    lhs = conjugate(y, x)
    rhs = power(y, 2)
    assert lhs.perm == rhs.perm
    assert lhs != rhs


def test_defect_of_a_repaired_pair_vanishes():
    x, _ = build_xy()
    w = build_frobenius()
    assert defect(x, w.v).is_zero()


def test_default_offset():
    N0 = default_offset()
    assert N0 == PairVector.from_pairs(7, {(3, 5): 1, (1, 6): 1, (2, 7): -1, (5, 7): -1})
    assert recover_parameters(N0) == (0, 0, 0, -1, 1, 0)


def test_family_solves_and_has_rank_six():
    fam = solve_family()
    assert fam.rank == 6
    assert len(fam.kernel) == 6
    assert recover_parameters(fam.particular) == recover_parameters(default_offset())
    # parametrization round trips
    rng = random.Random(43)
    for _ in range(40):
        r = tuple(rng.randint(-5, 5) for _ in range(6))
        N = family_member(r)
        assert recover_parameters(N) == r


def test_family_is_the_integer_solution_set_of_the_repair_system():
    M, rhs = repair_system()
    assert (len(M), len(rhs)) == (24, 24)
    solved = solve_integer(M, rhs)
    assert solved is not None
    particular, kernel = solved
    assert mat_vec(M, particular) == rhs
    assert mat_vec(M, list(default_offset().coeffs)) == rhs
    assert mat_vec(M, list(family_member((0,) * 6).coeffs)) == rhs
    assert len(kernel) == 6
    assert row_lattice_hnf(kernel) == row_lattice_hnf(kernel_rows(solve_family()))


def test_family_is_the_conjugates_of_v0_by_x_invariant_vectors():
    # H^1(F21, Z^21) = 0: the repaired partners of x are A^theta v0 A^-theta
    # with theta constant on each x-orbit; the 7 orbit indicators span them
    x, v0 = reference_pair()
    orbits = basis_orbits(x)
    assert len(orbits) == 7
    moved = []
    for orbit in orbits:
        mover = pure(PairVector.from_pairs(7, {P: 1 for P in orbit}))
        assert conjugate(x, mover) == x
        moved.append(list((conjugate(v0, mover).vec - v0.vec).coeffs))
    assert row_lattice_hnf(moved) == row_lattice_hnf(kernel_rows(solve_family()))
    # theta = all ones is F21-invariant and moves nothing: rank 7 - 1
    assert all(sum(col) == 0 for col in zip(*moved))


def test_certificate_decides_family_membership():
    # 42 single-coefficient mutations of N0 and 200 family members: the
    # relation check in build_frobenius agrees with the closed form
    N0 = default_offset()
    offsets = [N0 + PairVector.basis(7, *P) for P in pairs(7)]
    offsets += [N0 - PairVector.basis(7, *P) for P in pairs(7)]
    rng = random.Random(67)
    offsets += [family_member(tuple(rng.randint(-9, 9) for _ in range(6))) for _ in range(200)]
    members = 0
    for N in offsets:
        try:
            recover_parameters(N)
        except NotASolution:
            with pytest.raises(NotASolution, match="offset does not repair the relation"):
                build_frobenius(N)
        else:
            members += 1
            assert build_frobenius(N).v == mul(pure(N), build_xy()[1])
    assert members == 200


def test_family_member_takes_six_ints_only():
    assert family_member([1, 1, 2, 0, 0, 0]) == family_member((1, 1, 2, 0, 0, 0))
    for r in [
        ("1", True, 2.9, 0, 0, 0),
        (1, True, 2, 0, 0, 0),
        (1, 1, 2.0, 0, 0, 0),
        ("1", 1, 2, 0, 0, 0),
        (1, 1, 2, 0, 0),
        (1, 1, 2, 0, 0, 0, 0),
        iter((1, 1, 2, 0, 0, 0)),
        "123456",
    ]:
        with pytest.raises(ValueError, match="family parameters must be six integers"):
            family_member(r)


def test_family_membership_is_exact():
    with pytest.raises(NotASolution, match="^vector is not in the repair family"):
        recover_parameters(PairVector.zero(7))
    bad = default_offset() + PairVector.basis(7, 1, 2)
    with pytest.raises(NotASolution, match="^vector is not in the repair family"):
        recover_parameters(bad)
    with pytest.raises(NotASolution, match="^offset vector must live on 7 strands$"):
        recover_parameters(PairVector.zero(6))


def test_family_members_all_work():
    rng = random.Random(47)
    x, _ = build_xy()
    for _ in range(12):
        r = tuple(rng.randint(-3, 3) for _ in range(6))
        w = build_frobenius(family_member(r))
        assert element_order(w.x) == 3
        assert element_order(w.v) == 7
        assert conjugate(w.v, w.x) == power(w.v, 2)
        assert w.x == x


def test_build_frobenius_certificate():
    w = build_frobenius()
    assert all(rec["holds"] for rec in w.certificate)
    relations = {rec["relation"] for rec in w.certificate}
    assert len(relations) == 3
    data = w.to_json()
    assert data["x"] == w.x.to_json()


def test_build_frobenius_rejects_non_solutions():
    with pytest.raises(NotASolution):
        build_frobenius(PairVector.zero(7))
    with pytest.raises(NotASolution):
        build_frobenius(default_offset() + PairVector.basis(7, 1, 2))
    # an offset on other strands, with the same message
    for n in (5, 8):
        with pytest.raises(NotASolution, match=r"^offset does not repair the relation: 0$"):
            build_frobenius(PairVector.zero(n))


def test_subgroup_closure_is_f21():
    w = build_frobenius()
    elements = subgroup_closure(w.x, w.v)
    assert len(elements) == 21
    with pytest.raises(ValueError, match="^need at least one generator$"):
        subgroup_closure()
    orders = sorted(element_order(g) for g in elements)
    assert orders == [1] + [3] * 14 + [7] * 6
    # closed under inverse and the two generator actions
    elts = set(elements)
    for g in elements:
        assert inverse(g) in elts
        assert mul(g, w.x) in elts
        assert mul(g, w.v) in elts


def test_reference_constants_are_built_once_and_immutable():
    assert build_xy() is build_xy()
    assert reference_pair() is reference_pair()
    x, v0 = reference_pair()
    assert x is build_xy()[0]
    assert v0 == mul(pure(default_offset()), build_xy()[1]) == build_frobenius().v
    for g in (*build_xy(), v0):
        with pytest.raises(AttributeError):
            g.perm = BETA
        with pytest.raises(AttributeError):
            g.tag = 1


def test_reference_group_is_the_listed_f21():
    group = reference_group()
    assert group is reference_group()
    assert len(group) == 21
    assert group == set(subgroup_closure(*reference_pair()))


def test_image_check_survives_optimize():
    # under -O every assert is gone; a wrong reference group (planted here)
    # must still make the per-call image check raise
    script = """
import sys
import braidcryst.frobenius as f
from braidcryst import VerificationError
x, v0 = f.reference_pair()
print(sys.flags.optimize, f.standardize_frobenius(x, v0).power)
f.reference_group = lambda: frozenset([x, v0])
try:
    f.standardize_frobenius(x, v0)
except VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "1", "raised"]


def test_conjugator_between_standard_cases():
    # theta vanishes at the canonical offset and satisfies both defining
    # identities everywhere (checked inside conjugator_between)
    assert conjugator_between(default_offset()).is_zero()
    rng = random.Random(53)
    x, y = build_xy()
    v0 = build_frobenius().v
    for _ in range(15):
        r = tuple(rng.randint(-4, 4) for _ in range(6))
        N = family_member(r)
        theta = conjugator_between(N)
        mover = pure(theta)
        # theta fixes x and carries the canonical partner onto the member's
        assert conjugate(x, mover) == x
        assert conjugate(v0, mover) == mul(pure(N), y)
        assert conjugate(mul(pure(N), y), inverse(mover)) == v0


def test_conjugator_between_rejects_non_family():
    with pytest.raises(ValueError):
        conjugator_between(PairVector.zero(7))


def test_standardize_trivial():
    w = build_frobenius()
    res = standardize_frobenius(w.x, w.v)
    assert res.conjugator.is_identity()
    assert res.power == 1
    assert conjugate(w.x, res.conjugator) == w.x
    assert conjugate(w.v, res.conjugator) == w.v


def test_standardize_powers_of_v():
    # (x, v0^j) is a Frobenius pair for every j coprime to 7, and like every
    # such pair it is carried onto (x, v0) itself, not onto (x, v0^j)
    w = build_frobenius()
    for j in range(1, 7):
        res = standardize_frobenius(w.x, power(w.v, j))
        assert res.power == 1
        assert conjugate(power(w.v, j), res.conjugator) == w.v
        assert conjugate(w.x, res.conjugator) == w.x


def test_rotation_match_fits_every_relabeling_of_the_reference_permutations():
    # S_7 acts freely and transitively on the pairs (t, z) of a 7-cycle z and
    # a t with t z t^-1 = z^2: the 5040 conjugates of (BETA, ALPHA) are
    # distinct, and the least-permutation search, which tries the 7 images of
    # point 1 in turn (the rotations of the cycle of z), carries each one
    # back onto (BETA, ALPHA) itself, by the one permutation that can
    from braidcryst.permutation import conjugating_permutation

    pairs_seen = set()
    for images in itertools.permutations(range(1, 8)):
        u = Permutation(images)
        t, z = u * BETA * u.inverse(), u * ALPHA * u.inverse()
        pairs_seen.add((t, z))
        assert conjugating_permutation((t, z), (BETA, ALPHA)) == u.inverse()
    assert len(pairs_seen) == 5040


def test_standardization_checks_raise_when_planted_false(monkeypatch):
    import braidcryst.frobenius as f
    import braidcryst.quotient as quotient
    from braidcryst import VerificationError

    w = build_frobenius()
    g3, g7 = conjugate(w.x, w.v), conjugate(w.v, w.v)
    assert standardize_frobenius(g3, g7).power == 1
    plants = [
        (quotient, "conjugating_permutation", lambda a, b: None, "no conjugator"),
        (quotient, "conjugating_permutation", lambda a, b: BETA, "no conjugator"),
        (quotient, "_theta_walk", lambda sources, targets: None, "no conjugator"),
        (quotient, "_theta_walk", lambda sources, targets: PairVector.basis(7, 1, 2),
         "does not carry the sources"),
        (f, "reference_group", lambda: frozenset([w.x, w.v]), "image subgroup"),
    ]
    for module, name, plant, message in plants:
        with monkeypatch.context() as m:
            m.setattr(module, name, plant)
            with pytest.raises(VerificationError, match=message):
                standardize_frobenius(g3, g7)


def test_standardize_random_conjugates():
    rng = random.Random(59)
    w = build_frobenius()
    x0, v0 = w.x, w.v
    target = set(subgroup_closure(x0, v0))
    letters = [k for k in range(-6, 7) if k]
    for _ in range(30):
        word = BraidWord(7, tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
        vec = PairVector(7, tuple(rng.randint(-2, 2) for _ in pairs(7)))
        c = mul(normalize(word), pure(vec))
        r = tuple(rng.randint(-3, 3) for _ in range(6))
        vr = mul(pure(family_member(r)), build_xy()[1])
        k = rng.choice([1, 2, 3, 4, 5, 6])
        g3 = conjugate(x0, c)
        g7 = conjugate(power(vr, k), c)
        res = standardize_frobenius(g3, g7)
        assert conjugate(g3, res.conjugator) == x0
        assert conjugate(g7, res.conjugator) == power(v0, res.power)
        image = set(
            subgroup_closure(
                conjugate(g3, res.conjugator), conjugate(g7, res.conjugator)
            )
        )
        assert image == target


def standardize_with_closure_check(g3, g7):
    """:func:`standardize_frobenius` as it was when every call listed
    ``<x, v0>`` again by closure and compared it with the reference group."""
    if g3.n != 7 or g7.n != 7:
        raise NotFrobenius("generators must live on 7 strands")
    if element_order(g3) != 3 or element_order(g7) != 7:
        raise NotFrobenius("wrong orders")
    if conjugate(g7, g3) != power(g7, 2):
        raise NotFrobenius("conjugation relation g3 g7 g3^-1 = g7^2 fails")
    x, v0 = reference_pair()
    c = subgroup_conjugator((g3, g7), (x, v0))
    assert c is not None
    assert closure(QuotientElement.identity(7), (x, v0)) == reference_group()
    return StandardizationResult(conjugator=c, power=1)


def test_standardize_lists_no_group_per_call(monkeypatch):
    import braidcryst.frobenius as f
    import braidcryst.quotient as quotient

    rng = random.Random(61)
    x0, v0 = reference_pair()
    y = build_xy()[1]
    letters = [k for k in range(-6, 7) if k]
    inputs = []
    for _ in range(30):
        word = BraidWord(7, tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
        vec = PairVector(7, tuple(rng.randint(-2, 2) for _ in pairs(7)))
        c = mul(normalize(word), pure(vec))
        vr = mul(pure(family_member(tuple(rng.randint(-3, 3) for _ in range(6)))), y)
        inputs.append((conjugate(x0, c), conjugate(power(vr, rng.randint(1, 6)), c)))
    expected = [standardize_with_closure_check(g3, g7) for g3, g7 in inputs]
    standardize_frobenius(*inputs[0])  # warm up: the reference constants exist

    calls = {"mul": 0, "closure": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    counted_mul = spy("mul", quotient.mul)
    monkeypatch.setattr(quotient, "mul", counted_mul)
    monkeypatch.setattr(f, "mul", counted_mul)
    monkeypatch.setattr(f, "closure", spy("closure", f.closure))
    for (g3, g7), want in zip(inputs, expected):
        calls["mul"] = 0
        assert standardize_frobenius(g3, g7) == want
        assert calls["mul"] <= 20
    assert calls["closure"] == 0


def test_each_conjugation_is_checked_once(monkeypatch):
    # subgroup_conjugator checks its final conjugator and nothing before it:
    # standardize_frobenius pays 4 mul and 1 inverse for the relation check,
    # 4 and 2 to conjugate by the permutation lift, 1 to compose and 4 and 2
    # to check; are_conjugate pays 2 and 1, 1, and 2 and 1
    import braidcryst.frobenius as f
    import braidcryst.quotient as quotient
    from braidcryst.conjugacy import are_conjugate

    rng = random.Random(71)
    x0, v0 = reference_pair()
    y = build_xy()[1]
    letters = [k for k in range(-6, 7) if k]
    pairs7, finite = [], []
    for _ in range(10):
        word = BraidWord(7, tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
        c = mul(normalize(word), pure(PairVector(7, tuple(rng.randint(-2, 2) for _ in pairs(7)))))
        vr = mul(pure(family_member(tuple(rng.randint(-3, 3) for _ in range(6)))), y)
        pairs7.append((conjugate(x0, c), conjugate(power(vr, rng.randint(1, 6)), c)))
        delta = torsion_element(BlockSpec(7, rng.choice([(3,), (5,), (7,), (3, 3)])))
        g, h = conjugate(delta, c), conjugate(delta, mul(c, c))
        if g != h:
            finite.append((g, h))
    assert len(finite) >= 8
    reference_group()  # warm up: the reference constants exist

    calls = {"mul": 0, "inverse": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    counted_mul = spy("mul", quotient.mul)
    monkeypatch.setattr(quotient, "mul", counted_mul)
    monkeypatch.setattr(f, "mul", counted_mul)
    monkeypatch.setattr(quotient, "inverse", spy("inverse", quotient.inverse))
    for g3, g7 in pairs7:
        calls.update(mul=0, inverse=0)
        standardize_frobenius(g3, g7)
        assert calls["mul"] <= 13 and calls["inverse"] <= 5, calls
    for g, h in finite:
        calls.update(mul=0, inverse=0)
        assert are_conjugate(g, h)[0] is True
        assert calls["mul"] <= 5 and calls["inverse"] <= 2, calls


def test_each_centralizer_branch_is_reachable_deterministically():
    from braidcryst.quotient import canonical_lift

    w = build_frobenius()
    # conjugating the standard pair by these beta-centralizing lifts lands
    # the seven-cycle in each of the three 7-cycle subgroups BETA normalizes
    drivers = {
        0: "()",
        1: "(1,6)(2,4)(3,5)",
        2: "(1,3,2)",
    }
    for text in drivers.values():
        c = normalize(canonical_lift(Permutation.from_text(7, text)))
        res = standardize_frobenius(conjugate(w.x, c), conjugate(w.v, c))
        assert conjugate(conjugate(w.x, c), res.conjugator) == w.x
        assert conjugate(conjugate(w.v, c), res.conjugator) == power(w.v, res.power)


def test_standardize_rejects_wrong_orders():
    w = build_frobenius()
    with pytest.raises(NotFrobenius):
        standardize_frobenius(w.v, w.v)
    with pytest.raises(NotFrobenius):
        standardize_frobenius(w.x, w.x)
    # unrepaired pair fails the commutation requirement
    x, y = build_xy()
    with pytest.raises(NotFrobenius):
        standardize_frobenius(x, y)


def test_standardize_rejects_wrong_degree():
    g = torsion_element(BlockSpec(6, (3, 3)))
    with pytest.raises(NotFrobenius):
        standardize_frobenius(g, g)


def test_frozen_orbit_tables():
    from braidcryst.quotient import basis_orbits

    x, _ = build_xy()
    v0 = build_frobenius().v
    x_orbits = [
        ["".join(map(str, P)) for P in orbit] for orbit in basis_orbits(x)
    ]
    assert x_orbits == [
        ["12", "13", "23"],
        ["14", "36", "25"],
        ["15", "34", "26"],
        ["16", "35", "24"],
        ["17", "37", "27"],
        ["45", "46", "56"],
        ["47", "67", "57"],
    ]
    y_orbits = [
        ["".join(map(str, P)) for P in orbit] for orbit in basis_orbits(v0)
    ]
    assert y_orbits == [
        ["12", "47", "36", "15", "27", "46", "35"],
        ["13", "17", "67", "56", "25", "24", "34"],
        ["14", "37", "16", "57", "26", "45", "23"],
    ]
