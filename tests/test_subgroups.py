"""Holonomy matrices, Bieberbach checks, the three-strand catalog."""

import itertools
import random
import time

import pytest

from braidcryst import zlinalg
from braidcryst.braidword import BraidWord, PairVector, pair_images, pair_index, pairs, pure_generator_word
from braidcryst.permutation import Permutation, StabilizerChain
from braidcryst.quotient import (
    QuotientElement,
    basis_orbits,
    element_order,
    mul,
    normalize,
    power,
    pure,
)
from braidcryst.subgroups import (
    HolonomySubgroup,
    holonomy_det,
    holonomy_matrix,
    is_bieberbach,
    preimage_abelianization,
    sublattice_is_torsion_free,
    three_strand_catalog,
    torsion_certificate,
)
from holonomy_oracle import generator_sets, listing_is_bieberbach, mul_walk_abelianization
from test_cli import run_capped
from test_zlinalg import run_python


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_holonomy_matrix_of_a_transposition():
    M = holonomy_matrix(Permutation.from_cycles(3, [(1, 2)]))
    assert M == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert holonomy_det(Permutation.from_cycles(3, [(1, 2)])) == -1


def test_holonomy_matrix_of_the_three_cycle():
    c = Permutation.from_text(3, "(1,3,2)")
    M = holonomy_matrix(c)
    assert M == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert holonomy_det(c) == 1
    # in the reordered basis (A12, A23, A13) the same action reads
    reorder = [0, 2, 1]
    R = [[M[reorder[a]][reorder[b]] for b in range(3)] for a in range(3)]
    assert R == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_holonomy_is_a_homomorphism():
    rng = random.Random(41)
    for n in (3, 4, 5):
        perms = list(map(Permutation, itertools.permutations(range(1, n + 1))))
        for _ in range(25):
            p, q = rng.choice(perms), rng.choice(perms)
            assert matmul(holonomy_matrix(p), holonomy_matrix(q)) == holonomy_matrix(p * q)
            assert holonomy_det(p) * holonomy_det(q) == holonomy_det(p * q)


def test_holonomy_matrices_are_permutation_matrices():
    for p in map(Permutation, itertools.permutations(range(1, 5))):
        M = holonomy_matrix(p)
        assert all(sum(col) == 1 for col in zip(*M)) and all(sum(row) == 1 for row in M)
        assert holonomy_det(p) in (-1, 1)


def test_holonomy_det_is_the_sign_of_the_pair_permutation():
    # oracle: the parity of the permutation the pair action induces on the
    # n(n-1)/2 pair positions, over all of S_n for n <= 7 and seeded up to 60
    rng = random.Random(47)
    perms = [Permutation(images) for n in range(2, 8) for images in itertools.permutations(range(1, n + 1))]
    for n in range(8, 61):
        for _ in range(6):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
    for p in perms:
        pair_sign = -1 if Permutation(tuple(k + 1 for k in pair_images(p))).parity() else 1
        assert holonomy_det(p) == pair_sign, p


def test_holonomy_subgroup_enumeration():
    H = HolonomySubgroup.from_cycle_texts(4, ["(1,2,3,4)", "(1,3)"])
    assert H.order == 8
    chain = StabilizerChain(4, H.generators)
    assert Permutation.from_text(4, "(2,4)") in chain
    assert Permutation.from_text(4, "(1,2)") not in chain
    S3 = HolonomySubgroup.from_cycle_texts(3, ["(1,2)", "(2,3)"])
    assert S3.order == 6


def test_is_bieberbach_matches_the_listing_decision():
    verdicts = []
    for n, gens in generator_sets(23, 300):
        H = HolonomySubgroup(n, gens)
        verdicts.append(is_bieberbach(H))
        assert verdicts[-1] == listing_is_bieberbach(HolonomySubgroup(n, gens))
    assert 50 <= sum(verdicts) <= 250


def test_membership_sifts_like_listing():
    for n, gens in generator_sets(8, 40, max_n=5):
        chain, listed = StabilizerChain(n, gens), set(HolonomySubgroup(n, gens).elements)
        assert all((p in chain) == (p in listed) for p in map(Permutation, itertools.permutations(range(1, n + 1))))
        assert Permutation.identity(n + 1) not in chain


def test_torsion_certificate():
    for n, gens in generator_sets(23, 300):
        H = HolonomySubgroup(n, gens)
        g = torsion_certificate(StabilizerChain(H.n, H.generators))
        if is_bieberbach(H):
            assert g is None
            continue
        q = g.perm.order()
        assert q >= 3 and all(q % d for d in range(2, q))
        assert g.perm in StabilizerChain(n, gens)
        assert element_order(g) == q
        assert torsion_certificate(StabilizerChain(n, gens)) == g


def test_certificate_check_survives_optimize():
    # under -O every assert is gone; the witness check behind the certificate
    # must still raise when the product it verifies (here a stubbed mul) is wrong
    script = """
import sys
import braidcryst.subgroups as s
import braidcryst.torsion as t
from braidcryst import VerificationError
H = s.HolonomySubgroup.from_cycle_texts(5, ["(1,2,3)", "(4,5)"])
chain = s.StabilizerChain(H.n, H.generators)
print(sys.flags.optimize, s.torsion_certificate(chain) is not None)
t.mul = lambda a, b: b
try:
    s.torsion_certificate(chain)
except VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "True", "raised"]


@pytest.mark.parametrize(
    "statement, message",
    [
        (
            "from braidcryst.permutation import Permutation, closure\n"
            "closure(Permutation.identity(10), [Permutation.from_text(10, '(1,2,3,4,5,6,7,8,9,10)'),"
            " Permutation.from_text(10, '(1,2)')])",
            "the group has more than 50000 elements; refusing to list them",
        ),
        (
            "from braidcryst import PairVector, pure, subgroup_closure\n"
            "subgroup_closure(pure(PairVector.basis(3, 1, 2)))",
            "the group has more than 50000 elements; refusing to list them",
        ),
        (
            "from braidcryst import HolonomySubgroup\n"
            "HolonomySubgroup.from_cycle_texts(11, ['(1,2,3,4,5,6,7,8,9,10,11)', '(1,2)']).elements",
            "the group has 39916800 elements, more than 50000; refusing to list them",
        ),
        (
            "from braidcryst import Permutation, holonomy_matrix\n"
            "holonomy_matrix(Permutation.identity(3000))",
            "the holonomy matrix at n=3000 has 20236502250000 entries, "
            "more than 16777216; refusing to build it",
        ),
    ],
    ids=["closure", "subgroup_closure", "elements", "holonomy_matrix"],
)
def test_size_guards_raise_a_domain_error(statement, message):
    # in a child limited to 600 MB of address space: each guard must fire
    # with its own message, not end in an out-of-memory error
    script = "try:\n" + "".join(f"    {line}\n" for line in statement.splitlines()) + (
        "except ValueError as exc:\n    print(exc)\n"
    )
    done = run_capped("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [message]


def test_sylow_two_subgroups_are_bieberbach():
    # 2-groups contain no odd-order torsion, so their preimages are torsion
    # free for every n where they fit
    cases = {
        3: ["(1,2)"],
        4: ["(1,2,3,4)", "(1,3)"],
        5: ["(1,2,3,4)", "(1,3)"],
        6: ["(1,2,3,4)", "(1,3)", "(5,6)"],
    }
    for n, gens in cases.items():
        H = HolonomySubgroup.from_cycle_texts(n, gens)
        assert is_bieberbach(H)


def test_odd_torsion_blocks_bieberbach():
    assert not is_bieberbach(HolonomySubgroup.from_cycle_texts(3, ["(1,2,3)"]))
    assert not is_bieberbach(HolonomySubgroup.from_cycle_texts(3, ["(1,2)", "(2,3)"]))
    assert not is_bieberbach(HolonomySubgroup.from_cycle_texts(5, ["(1,2)", "(3,4,5)"]))
    # trivial holonomy: free abelian, Bieberbach
    assert is_bieberbach(HolonomySubgroup.from_cycle_texts(4, []))


def test_catalog_report():
    report = three_strand_catalog()
    assert report["n"] == 3
    names = [s["name"] for s in report["subgroups"]]
    assert names == ["trivial", "three_cycle", "transposition", "symmetric"]
    by_name = {s["name"]: s for s in report["subgroups"]}

    assert all(s["relators_verified"] for s in report["subgroups"])
    assert by_name["trivial"]["abelianization"] == [3]
    assert by_name["three_cycle"]["abelianization"] == [1, 3]
    assert by_name["transposition"]["abelianization"] == [2]
    assert by_name["symmetric"]["abelianization"] == [1]
    assert [s["bieberbach"] for s in report["subgroups"]] == [True, False, True, False]
    assert by_name["transposition"]["det_spectrum"] == [-1, 1]
    assert by_name["three_cycle"]["det_spectrum"] == [1]
    assert by_name["transposition"]["holonomy_generators"] == [
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    ]
    assert report["bieberbach_example"]["torsion_free"] is True
    assert report["torsion_example"]["torsion_free"] is False


# The paper's presentations of the four preimages over three strands, as
# braid words for the generators and relators as (generator, exponent) lists.
A12, A13, A23 = (pure_generator_word(3, i, j) for i, j in pairs(3))
S1, S2, ALPHA3 = BraidWord(3, (1,)), BraidWord(3, (2,)), BraidWord(3, (1, 2))
COMMS = [
    [(0, 1), (1, 1), (0, -1), (1, -1)],
    [(0, 1), (2, 1), (0, -1), (2, -1)],
    [(1, 1), (2, 1), (1, -1), (2, -1)],
]
PAPER_PRESENTATIONS = {
    # subgroup generators: (generator words, relators)
    (): ((A12, A13, A23), COMMS),
    ("(1,3,2)",): (
        (A12, A23, A13, ALPHA3),
        [
            *COMMS,
            [(3, 3), (1, -1), (2, -1), (0, -1)],    # a^3 = A12 A13 A23
            [(3, 1), (0, 1), (3, -1), (1, -1)],     # a A12 a^-1 = A23
            [(3, 1), (2, 1), (3, -1), (0, -1)],     # a A13 a^-1 = A12
            [(3, 1), (1, 1), (3, -1), (2, -1)],     # a A23 a^-1 = A13
        ],
    ),
    ("(1,2)",): (
        (A12, A23, A13, S1),
        [
            *COMMS,
            [(3, 2), (0, -1)],                      # s1^2 = A12
            [(3, 1), (0, 1), (3, -1), (0, -1)],     # s1 A12 s1^-1 = A12
            [(3, 1), (2, 1), (3, -1), (1, -1)],     # s1 A13 s1^-1 = A23
            [(3, 1), (1, 1), (3, -1), (2, -1)],     # s1 A23 s1^-1 = A13
        ],
    ),
    ("(1,2)", "(2,3)"): (
        (S1, S2),
        [
            [(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)],  # braid relation
            [(0, -1), (1, 1)] * 3,                                # (s1^-1 s2)^3
        ],
    ),
}


def relator_word(gen_words, relator):
    word = BraidWord(3, ())
    for index, exponent in relator:
        g = gen_words[index] if exponent > 0 else gen_words[index].inverse()
        for _ in range(abs(exponent)):
            word = word * g
    return word


def relator_row(count, relator):
    row = [0] * count
    for index, exponent in relator:
        row[index] += exponent
    return row


@pytest.mark.parametrize("texts", list(PAPER_PRESENTATIONS), ids=str)
def test_paper_presentations_match_the_generic_one(texts):
    gen_words, relators = PAPER_PRESENTATIONS[texts]
    assert all(normalize(relator_word(gen_words, rel)).is_identity() for rel in relators)
    rows = [relator_row(len(gen_words), rel) for rel in relators]
    H = HolonomySubgroup.from_cycle_texts(3, texts)
    assert zlinalg.abelianization(rows, len(gen_words)) == preimage_abelianization(H)


def test_preimage_of_the_trivial_group_is_the_pair_lattice():
    for n in range(2, 7):
        H = HolonomySubgroup.from_cycle_texts(n, [])
        assert preimage_abelianization(H) == (n * (n - 1) // 2, [])


def test_preimage_of_the_symmetric_group_abelianizes_like_the_braid_group():
    # the preimage of S_n is the whole quotient, and B_n abelianizes to Z
    for n in range(3, 7):
        cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
        H = HolonomySubgroup.from_cycle_texts(n, ["(1,2)", cycle])
        assert preimage_abelianization(H) == (1, [])


def pair_orbit_count(H):
    return len({frozenset(h.pair_action(P) for h in H.elements) for P in pairs(H.n)})


def test_preimage_abelianization_of_f21_and_a_wreath_product():
    f21 = ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"]
    cases = [
        (7, f21, 21, (1, [3])),
        (9, ["(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)"], 81, (2, [3, 3])),  # C3 wr C3
        (6, ["(1,2)", "(3,4)", "(5,6)"], 8, (6, [])),  # C2^3
        (8, ["(1,2,4,7)(3,6,8,5)", "(1,3,4,8)(2,5,7,6)"], 8, (4, [2, 2])),  # regular Q8
        (8, ["(1,2,3,4)", "(1,3)", "(1,5)(2,6)(3,7)(4,8)"], 128, (3, [2, 2])),  # D8 wr C2
        (10, [*f21, "(8,9,10)"], 63, (3, [3, 3])),  # F21 x C3
    ]
    for n, texts, order, expected in cases:
        H = HolonomySubgroup.from_cycle_texts(n, texts)
        assert H.order == order
        assert preimage_abelianization(H) == expected == mul_walk_abelianization(H)
        # the free rank is the number of H-orbits on pairs
        assert expected[0] == pair_orbit_count(H)
    # the regular Q8 has one involution, unlike the other groups of order 8
    q8 = HolonomySubgroup.from_cycle_texts(8, cases[3][1])
    assert sum(p.order() == 2 for p in q8.elements) == 1


def test_preimage_abelianization_ignores_generators_and_labels():
    rng = random.Random(57)
    checked = 0
    for n, gens in generator_sets(31, 60, max_n=6):
        H = HolonomySubgroup(n, gens)
        if H.order > 120:
            continue
        expected = preimage_abelianization(H)
        assert expected == mul_walk_abelianization(H)
        assert expected[0] == pair_orbit_count(H)
        # another generating set of the same group: a product of two
        # generators replaces the first (a lone generator its inverse), and
        # the identity joins
        other = (gens[0] * gens[-1], *gens[1:]) if len(gens) > 1 else (gens[0].inverse(),)
        other += (Permutation.identity(n),)
        assert HolonomySubgroup(n, other).order == H.order
        assert preimage_abelianization(HolonomySubgroup(n, other)) == expected
        r = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        relabeled = tuple(r.inverse() * g * r for g in gens)
        assert preimage_abelianization(HolonomySubgroup(n, relabeled)) == expected
        checked += 1
    assert checked >= 30


def test_preimage_abelianization_refuses_a_large_group_before_walking(monkeypatch):
    import braidcryst.subgroups as s

    def no_walk(*args):
        raise AssertionError("walked the Cayley graph")

    # the walk multiplies permutations; the order comes from the chain,
    # which multiplies image tuples of its own
    monkeypatch.setattr(s.Permutation, "__mul__", no_walk)
    H = HolonomySubgroup.from_cycle_texts(9, ["(1,2)", "(1,2,3,4,5,6,7,8,9)"])
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        preimage_abelianization(H)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "the group has 362880 elements, more than 50000; refusing to list them"


def test_preimage_relator_check_survives_optimize():
    # under -O every assert is gone; the parity check on each Cayley-graph
    # relator row must still raise when the walk it reads is wrong: a stubbed
    # permutation product with h * s == s makes s1 * s1 an edge back to s1,
    # whose row d = (1, 0) meets the odd orbit sum of (1,2)
    script = """
import sys
import braidcryst.subgroups as s
from braidcryst import VerificationError
H = s.HolonomySubgroup.from_cycle_texts(3, ["(1,2)", "(2,3)"])
print(sys.flags.optimize, *s.preimage_abelianization(H))
s.Permutation.__mul__ = lambda a, b: b
try:
    s.preimage_abelianization(H)
except VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "1", "[]", "raised"]


def cube_lattice():
    return [PairVector.basis(3, i, j).scaled(3) for (i, j) in pairs(3)]


def square_lattice():
    return [PairVector.basis(3, i, j).scaled(2) for (i, j) in pairs(3)]


def test_designated_sublattice_examples():
    good = normalize(BraidWord.from_text(3, "1 1 -1 2"))  # A12 * s1^-1 s2
    bad = normalize(BraidWord.from_text(3, "-1 2"))
    assert sublattice_is_torsion_free(good, cube_lattice())
    assert not sublattice_is_torsion_free(bad, square_lattice())


def test_torsion_search_agrees_with_solver():
    # brute force small lattice combinations looking for order-3 elements
    def has_small_torsion(rep, gens, bound=2):
        for j in (1, 2):
            base = power(rep, j)
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
                shift = PairVector.zero(3)
                for c, g in zip(coeffs, gens):
                    shift = shift + g.scaled(c)
                cand = mul(pure(shift), base)
                if element_order(cand) == 3:
                    return True
        return False

    good = normalize(BraidWord.from_text(3, "1 1 -1 2"))
    bad = normalize(BraidWord.from_text(3, "-1 2"))
    assert has_small_torsion(bad, square_lattice())  # rep itself has order 3
    assert not has_small_torsion(good, cube_lattice())


def test_sublattice_validation():
    rep = normalize(BraidWord.from_text(3, "1 1"))  # pure: perm order 1
    with pytest.raises(ValueError):
        sublattice_is_torsion_free(rep, cube_lattice())
    extra = normalize(BraidWord.from_text(3, "-1 2"))
    # non-invariant lattice rejected
    with pytest.raises(ValueError):
        sublattice_is_torsion_free(extra, [PairVector.basis(3, 1, 2).scaled(2)])


def test_more_sublattice_cases():
    rep = normalize(BraidWord.from_text(3, "-1 2"))
    # the full lattice contains the order-3 representative itself
    assert not sublattice_is_torsion_free(
        rep, [PairVector.basis(3, i, j) for (i, j) in pairs(3)]
    )
    assert not sublattice_is_torsion_free(rep, cube_lattice())


def loop_verdict(rep, gens):
    """The decision as one solve per ``j`` in ``1..m-1``, each against the
    rows ``(m/|O|) * orbit sum`` and the value of ``rep^m`` on the orbit."""
    n, m = rep.n, rep.perm.order()
    t_vec = power(rep, m).vec
    cols = [list(v.coeffs) for v in gens] + [list(t_vec.coeffs)]
    rows, t_values = [], []
    for orbit in basis_orbits(rep):
        share = m // len(orbit)
        rows.append([share * sum(c[pair_index(n, i, j)] for i, j in orbit) for c in cols])
        t_values.append(t_vec.coefficient(*orbit[0]))
    return all(zlinalg.solve_integer(rows, [-j * t for t in t_values]) is None for j in range(1, m))


def invariant_case(rng, n, m):
    """An ``m``-cycle coset representative (a transposition for ``m = 2``)
    and the invariant sublattice ``s * Z^pairs + Z-span(orbit of u)``."""
    p = Permutation.from_cycles(n, [rng.sample(range(1, n + 1), m)])
    rep = QuotientElement(p, PairVector(n, tuple(rng.choice((-1, 0, 0, 1)) for _ in pairs(n))))
    scale = rng.choice((2, 3, m, 2 * m))
    gens = [PairVector.basis(n, i, j).scaled(scale) for i, j in pairs(n)]
    u = PairVector(n, tuple(rng.choice((-1, 0, 0, 0, 1)) for _ in pairs(n)))
    for _ in range(m):
        gens.append(u)
        u = u.precompose(p)
    return rep, gens


def test_single_solve_matches_the_loop_over_cosets(monkeypatch):
    solves = []
    real_solve = zlinalg.solve_integer
    monkeypatch.setattr(zlinalg, "solve_integer", lambda *a: solves.append(1) or real_solve(*a))
    rng = random.Random(23)
    verdicts = {}
    for n in range(3, 8):
        for m in (m for m in (2, 3, 5, 7) if m <= n):
            for _ in range(6):
                rep, gens = invariant_case(rng, n, m)
                solves.clear()
                verdict = sublattice_is_torsion_free(rep, gens)
                assert len(solves) == 1
                assert verdict == loop_verdict(rep, gens)
                verdicts.setdefault(m, set()).add(verdict)
    # a transposition inverts the pair it swaps, whose orbit sum is then odd:
    # no coset of a transposition holds torsion
    assert verdicts == {2: {True}, 3: {False, True}, 5: {False, True}, 7: {False, True}}

