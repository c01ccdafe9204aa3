"""Seeded inputs, operations and answer checks for the four workloads.

Each workload turns a seed into an endless, deterministic stream of *cycles*.
A cycle is a list of :class:`Op` covering every operation kind and size of
the workload once, so every cycle has the same mix and throughput does not
depend on which kinds a short run happened to draw.

An op names a public ``braidcryst`` function by attribute, and the runner
looks it up at call time, so the trace wrappers installed over the package
namespaces see every call.  Checks are run after the timed region; each
returns True when the answer is right.  They use the word-concatenation
oracle ``normalize(to_word(g) * to_word(h))``, theorems of the paper that do
not depend on the engine (no even torsion; torsion-free iff the holonomy
order is a power of 2), sympy as an independent integer-algebra oracle, and
sublattice verdicts frozen at the seed commit.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import braidcryst as bc
from braidcryst import (
    BlockSpec,
    BraidWord,
    PairVector,
    Permutation,
    QuotientElement,
    iter_block_specs,
    pairs,
    pure_generator_word,
    torsion_element_word,
)

HERE = Path(__file__).resolve().parent
LATTICE_VERDICTS = HERE / "lattice_verdicts.json"


@dataclass
class Op:
    """One call ``braidcryst.<func>(*args)`` and what its check needs."""

    kind: str  # label used for per-kind reporting, e.g. "mul.n64"
    func: str  # attribute of the braidcryst package
    args: tuple
    expect: object = None  # check data fixed at generation time
    check: Callable[["Op", object], bool] = field(default=None, repr=False)

    def digest(self) -> str:
        return f"{self.kind}|{self.func}|{self.args!r}|{self.expect!r}"


# --- shared generators and oracles ------------------------------------------


def random_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def sparse_vec(rng: random.Random, n: int, count: int) -> PairVector:
    """A pair vector with ``count`` random entries in {-2, -1, 1, 2}; the
    engine's cost does not depend on sparsity, but the word oracle's does."""
    coeffs = [0] * (n * (n - 1) // 2)
    for _ in range(count):
        coeffs[rng.randrange(len(coeffs))] = rng.choice((-2, -1, 1, 2))
    return PairVector(n, tuple(coeffs))


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = [k for k in range(-(n - 1), n) if k]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def random_element(rng: random.Random, n: int) -> QuotientElement:
    """A fresh element: uniform permutation, sparse pure part."""
    return QuotientElement(random_perm(rng, n), sparse_vec(rng, n, max(2, n // 4)))


def random_spec(rng: random.Random, n: int, odd_blocks=(3, 5, 7)) -> BlockSpec:
    """Random ascending odd blocks fitting in ``n - 2`` strands (two points
    stay fixed, so a pure generator on them commutes with the blocks)."""
    blocks: list[int] = []
    budget = n - 2
    while True:
        choices = [k for k in odd_blocks if k <= budget]
        if not choices or (blocks and rng.random() < 0.4):
            break
        k = rng.choice(choices)
        blocks.append(k)
        budget -= k
    return BlockSpec(n, tuple(sorted(blocks)))


def word(g: QuotientElement) -> BraidWord:
    return bc.to_word(g)


def oracle(*words: BraidWord) -> QuotientElement:
    """Normal form of the concatenated words, the ground truth of the group law."""
    out = BraidWord(words[0].n, ())
    for w in words:
        out = out * w
    return bc.normalize(out)


def word_power(w: BraidWord, m: int) -> BraidWord:
    base = w if m >= 0 else w.inverse()
    return BraidWord(w.n, base.letters * abs(m))


def is_elem(result) -> bool:
    return isinstance(result, QuotientElement)


# --- group_law ----------------------------------------------------------------

GROUP_LAW_SIZES = (8, 16, 32, 64)


def _check_mul(op, r):
    g, h = op.args
    return is_elem(r) and r == oracle(word(g), word(h))


def _check_inverse(op, r):
    (g,) = op.args
    return is_elem(r) and r == oracle(word(g).inverse())


def _check_conjugate(op, r):
    g, c = op.args
    wc = word(c)
    return is_elem(r) and r == oracle(wc, word(g), wc.inverse())


def _check_power(op, r):
    g, m = op.args
    return is_elem(r) and r == oracle(word_power(word(g), m))


def _check_order(op, r):
    # expect: the exact order for planted torsion, math.inf otherwise.  The
    # infinite cases are an even-order permutation (the quotient has no even
    # torsion) or a torsion element times a pure generator on two of its
    # fixed points, whose k-th power is that generator to the k.
    (g,) = op.args
    if op.expect == math.inf:
        return r == math.inf
    return r == op.expect and oracle(word_power(word(g), op.expect)).is_identity()


def _check_normalize(op, r):
    (w,) = op.args
    cut = op.expect
    left = BraidWord(w.n, w.letters[:cut])
    right = BraidWord(w.n, w.letters[cut:])
    return (
        is_elem(r)
        and r.perm == w.permutation()
        and r == bc.mul(bc.normalize(left), bc.normalize(right))
    )


def typical_cycle_type(n: int) -> list[int]:
    """The cycle type of one fixed random even-order permutation of degree n.
    ``element_order`` costs about log2 of the permutation order in products,
    so drawing every input's cycle type afresh makes run times depend on the
    seed; fresh uniform conjugates of a fixed type do not."""
    rng = random.Random(f"cycle-type:{n}")
    while True:
        p = random_perm(rng, n)
        if p.order() % 2 == 0:
            return sorted((len(c) for c in p.cycles()), reverse=True)


def _order_input(rng: random.Random, n: int, case: int) -> tuple[QuotientElement, object]:
    if case == 0:
        points = list(range(1, n + 1))
        rng.shuffle(points)
        cycles, start = [], 0
        for k in typical_cycle_type(n):
            cycles.append(points[start:start + k])
            start += k
        p = Permutation.from_cycles(n, cycles)
        return QuotientElement(p, sparse_vec(rng, n, max(2, n // 4))), math.inf
    spec = random_spec(rng, n)
    c = random_word(rng, n, n)
    core = torsion_element_word(spec)
    if case == 2:
        core = pure_generator_word(n, n - 1, n) * core
    g = bc.normalize(c * core * c.inverse())
    return g, (spec.order() if case == 1 else math.inf)


def group_law_cycles(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"group_law:{seed}")
    count = 0
    while True:
        cycle = []
        for n in GROUP_LAW_SIZES:
            tag = f".n{n}"
            g, h, c = (random_element(rng, n) for _ in range(3))
            m = rng.choice((-3, -2, 2, 3))
            og, expect = _order_input(rng, n, count % 3)
            w = random_word(rng, n, 2 * n)
            cycle += [
                Op("mul" + tag, "mul", (g, h), check=_check_mul),
                Op("inverse" + tag, "inverse", (random_element(rng, n),), check=_check_inverse),
                Op("conjugate" + tag, "conjugate", (random_element(rng, n), c), check=_check_conjugate),
                Op("power" + tag, "power", (random_element(rng, n), m), check=_check_power),
                Op("element_order" + tag, "element_order", (og,), expect, check=_check_order),
                Op("normalize" + tag, "normalize", (w,), rng.randrange(len(w.letters) + 1),
                   check=_check_normalize),
            ]
        count += 1
        yield cycle


# --- decide -------------------------------------------------------------------

# Generators of a Sylow 2-subgroup of S_8 (order 128); those moving only
# points <= n generate a Sylow 2-subgroup of S_n.  ``is_bieberbach`` lists
# such a 2-group in full before it can answer.
SYLOW_8 = ("(1,2)", "(3,4)", "(5,6)", "(7,8)", "(1,3)(2,4)", "(5,7)(6,8)",
           "(1,5)(2,6)(3,7)(4,8)")


def _check_are_conjugate(op, r):
    g, h = op.args
    verdict, witness = r
    if verdict != (g.perm.cycle_type() == h.perm.cycle_type()):
        return False
    if not verdict:
        return witness is None
    ww = word(witness)
    return oracle(ww, word(g), ww.inverse()) == h


def _check_torsion_witness(op, r):
    (p,) = op.args
    k = p.order()
    if k % 2 == 0:
        return r is None
    if not isinstance(r, PairVector):
        return False
    return oracle(word_power(word(QuotientElement(p, r)), k)).is_identity()


def _check_standardize(op, r):
    g3, g7 = op.args
    x, v0 = op.expect
    wc = word(r.conjugator)
    return (
        1 <= r.power <= 6
        and oracle(wc, word(g3), wc.inverse()) == x
        and oracle(wc, word(g7), wc.inverse()) == oracle(word_power(word(v0), r.power))
    )


def _check_bieberbach(op, r):
    from sympy.combinatorics import Permutation as SPerm, PermutationGroup

    (H,) = op.args
    gens = [SPerm([i - 1 for i in g.images]) for g in H.generators]
    order = int(PermutationGroup(gens).order()) if gens else 1
    return r == (order & (order - 1) == 0)


def _check_orbits(op, r):
    (spec,) = op.args
    return r.orbits == bc.enumerate_orbits(bc.torsion_element(spec)).orbits


def _relabeled(rng: random.Random, n: int, texts) -> tuple[Permutation, ...]:
    sigma = random_perm(rng, n)
    return tuple(
        sigma.inverse() * Permutation.from_text(n, t) * sigma for t in texts
    )


def decide_cycles(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"decide:{seed}")
    x, y = bc.build_xy()
    v0 = bc.mul(bc.pure(bc.default_offset()), y)

    def scrambler(n):
        return bc.mul(bc.normalize(random_word(rng, n, rng.randint(0, 12))),
                      bc.pure(PairVector(n, tuple(rng.randint(-2, 2) for _ in pairs(n)))))

    specs_by_n = {n: list(iter_block_specs(n)) for n in range(7, 17)}
    count = 0
    while True:
        cycle = []
        for same in (True, False):
            n = rng.randint(7, 16)
            s1 = rng.choice(specs_by_n[n])
            s2 = s1 if same else rng.choice([s for s in specs_by_n[n] if s != s1])
            g = bc.conjugate(bc.torsion_element(s1), scrambler(n))
            h = bc.conjugate(bc.torsion_element(s2), scrambler(n))
            cycle.append(Op("are_conjugate", "are_conjugate", (g, h), check=_check_are_conjugate))
        for _ in range(2):
            n = rng.randint(5, 10)
            p = random_perm(rng, n)
            while p.is_identity():
                p = random_perm(rng, n)
            cycle.append(Op("torsion_witness", "torsion_witness", (p,), check=_check_torsion_witness))
        r = tuple(rng.randint(-3, 3) for _ in range(6))
        g3, g7 = x, bc.mul(bc.pure(bc.family_member(r)), y)
        if count % 2:
            c = scrambler(7)
            g3, g7 = bc.conjugate(g3, c), bc.conjugate(g7, c)
        cycle.append(Op("standardize_frobenius", "standardize_frobenius", (g3, g7), (x, v0),
                        check=_check_standardize))
        # the full Sylow 2-subgroup of S_n, n = 4..8 in turn (orders 8, 8,
        # 16, 16, 128): a random subgroup's order, and so its listing cost,
        # would swing with the seed
        n = 4 + count % 5
        gens = [t for t in SYLOW_8 if max(map(int, re.findall(r"\d+", t))) <= n]
        cycle.append(Op("is_bieberbach.2group", "is_bieberbach",
                        (bc.HolonomySubgroup(n, _relabeled(rng, n, gens)),),
                        check=_check_bieberbach))
        n = rng.randint(5, 8)
        odd = rng.choice(("(1,2,3)", "(1,2,3,4,5)", "(1,2,3)(4,5)"))
        extra = rng.choice(("(1,2)", "(4,5)", "(1,4)(2,5)", "()"))
        cycle.append(Op("is_bieberbach.torsion", "is_bieberbach",
                        (bc.HolonomySubgroup(n, _relabeled(rng, n, (odd, extra))),),
                        check=_check_bieberbach))
        n = rng.randint(5, 12)
        cycle.append(Op("closed_form_orbits", "closed_form_orbits",
                        (rng.choice(list(iter_block_specs(n))),), check=_check_orbits))
        count += 1
        yield cycle


# --- lattice ------------------------------------------------------------------

#: (n, prime cycle length) strata of the sublattice catalog.
LATTICE_STRATA = ((5, 3), (5, 5), (6, 3), (6, 5), (7, 3), (7, 7), (8, 5), (8, 7))
#: Catalog cases per stratum; a case is fixed by (stratum, index) alone.
LATTICE_CASES = 6


def lattice_case(n: int, m: int, index: int) -> tuple[QuotientElement, list[PairVector]]:
    """Catalog case: an ``m``-cycle coset representative and a pair-action
    invariant sublattice ``s * Z^pairs + Z-span(orbit of u)``."""
    rng = random.Random(f"lattice-case:{n}:{m}:{index}")
    support = rng.sample(range(1, n + 1), m)
    p = Permutation.from_cycles(n, [support])
    rep = QuotientElement(p, sparse_vec(rng, n, rng.randint(0, 3)))
    scale = rng.choice((2, 3, 4, 5, 6))
    gens = [PairVector.basis(n, i, j).scaled(scale) for (i, j) in pairs(n)]
    u = sparse_vec(rng, n, 3)
    for _ in range(m):
        gens.append(u)
        u = u.precompose(p)
    return rep, gens


def lattice_case_key(n: int, m: int, index: int) -> str:
    return f"{n}:{m}:{index}"


def _check_sublattice(op, r):
    return r is op.expect


def _check_abelianization(op, r):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    R, gens = op.args
    D = smith_normal_form(Matrix(R), domain=ZZ)
    diag = [abs(int(D[i, i])) for i in range(min(D.shape))]
    rank = sum(1 for d in diag if d)
    return r == (gens - rank, sorted(d for d in diag if d > 1))


def _matvec(M, x) -> list[int]:
    return [sum(int(a) * int(b) for a, b in zip(row, x)) for row in M]


def _check_solve(op, r):
    M, b = op.args
    if r is None:
        return False
    x0, kernel = r
    zero = [0] * len(M)
    return _matvec(M, x0) == list(b) and all(_matvec(M, k) == zero for k in kernel)


def _in_row_lattice(H, v) -> bool:
    """Is ``v`` an integer combination of the echelon rows ``H``?"""
    v = list(v)
    for row in H:
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            break
        if v[lead] % row[lead]:
            return False
        q = v[lead] // row[lead]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _check_hnf(op, r):
    (M,) = op.args
    H, U = ([[int(a) for a in row] for row in X] for X in r)
    cols = len(M[0])
    if [_matvec(U, col) for col in zip(*M)] != [list(c) for c in zip(*H)]:
        return False  # U @ M != H
    last = -1
    for row in H:
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            last = cols
            continue
        if lead <= last or row[lead] <= 0:
            return False  # not echelon with positive pivots
        last = lead
    pivots = [(i, next(j for j, a in enumerate(row) if a)) for i, row in enumerate(H) if any(row)]
    for i, j in pivots:
        if any(not 0 <= H[k][j] < H[i][j] for k in range(i)):
            return False  # entries above a pivot not reduced
    nonzero = [row for row in H if any(row)]
    return all(_in_row_lattice(nonzero, row) for row in M)


def repair_shaped_system(rng: random.Random, n: int) -> list[list[int]]:
    """Rows shaped like the Frobenius repair system: one ``N[Q] + N[aQ] -
    N[bQ]`` equation per pair, then one orbit-sum row per orbit of ``a``."""
    a, b = random_perm(rng, n), random_perm(rng, n)
    all_pairs = pairs(n)
    index = {q: i for i, q in enumerate(all_pairs)}
    rows = []
    for q in all_pairs:
        row = [0] * len(all_pairs)
        row[index[q]] += 1
        row[index[a.pair_action(q)]] += 1
        row[index[b.pair_action(q)]] -= 1
        rows.append(row)
    for orbit in bc.basis_orbits(QuotientElement(a, PairVector.zero(n))):
        row = [0] * len(all_pairs)
        for q in orbit:
            row[index[q]] = 1
        rows.append(row)
    return rows


def lattice_cycles(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"lattice:{seed}")
    verdicts = json.loads(LATTICE_VERDICTS.read_text())
    # cases are taken in turn, from a seeded start, so that every run covers
    # the catalog evenly and its cost does not swing with the seed
    start = rng.randrange(LATTICE_CASES)
    count = 0
    while True:
        cycle = []
        index = (start + count) % LATTICE_CASES
        for n, m in LATTICE_STRATA:
            rep, gens = lattice_case(n, m, index)
            # relabel strands by a random lift c: conjugation is an isomorphism,
            # so the frozen verdict still holds
            c = bc.normalize(bc.canonical_lift(random_perm(rng, n)))
            rep = bc.conjugate(rep, c)
            gens = [bc.conjugate(bc.pure(v), c).vec for v in gens]
            cycle.append(Op(f"sublattice.n{n}", "sublattice_is_torsion_free", (rep, gens),
                            verdicts[lattice_case_key(n, m, index)], check=_check_sublattice))
        for _ in range(4):
            gens = rng.randint(5, 12)
            R = [[rng.randint(-4, 4) for _ in range(gens)] for _ in range(rng.randint(gens - 2, gens + 3))]
            cycle.append(Op("abelianization", "abelianization", (R, gens), check=_check_abelianization))
        # eight cheap, regular solves: with them the cycle's median op is a
        # solve at n = 7, not the edge between two unlike op kinds
        for n in (6, 7) * 4:
            M = repair_shaped_system(rng, n)
            x = [rng.randint(-3, 3) for _ in M[0]]
            cycle.append(Op(f"solve_integer.n{n}", "solve_integer", (M, _matvec(M, x)), check=_check_solve))
        # dense entries in [-5, 5]: the HNF transform's entries reach
        # hundreds to thousands of digits at this size; a few rows more and
        # single inputs take seconds
        dense = [[rng.randint(-5, 5) for _ in range(18)] for _ in range(20)]
        cycle.append(Op("hnf.dense20x18", "hnf", (dense,), check=_check_hnf))
        count += 1
        yield cycle


# --- cli ----------------------------------------------------------------------

CLI_VERBS = ("nf", "order", "conjugate-test", "bieberbach", "frobenius-verify")


def cli_cycles(seed: int) -> Iterator[list[Op]]:
    """Each op is an argv for ``python -m braidcryst.cli``; its check compares
    the subprocess output with the same call made in-process."""
    rng = random.Random(f"cli:{seed}")
    while True:
        n = rng.randint(3, 6)
        spec = random_spec(rng, 7, (3, 5))
        c = random_word(rng, 7, 6)
        delta = c * torsion_element_word(spec) * c.inverse()
        other = random_word(rng, 7, 4)
        gamma = other * torsion_element_word(spec) * other.inverse()
        r = tuple(rng.randint(-3, 3) for _ in range(6))
        offset = json.dumps(bc.family_member(r).to_json())
        gens = _relabeled(rng, 6, rng.choice((("(1,2)", "(3,4)"), ("(1,2,3)",), ("(1,2)(3,4)", "(1,3)(2,4)"))))
        argvs = {
            "nf": ["--n", str(n), "nf", str(random_word(rng, n, 8))],
            "order": ["--n", "7", "order", str(delta)],
            "conjugate-test": ["--n", "7", "conjugate-test", str(delta), str(gamma)],
            "bieberbach": ["--n", "6", "bieberbach", *(str(g) for g in gens)],
            "frobenius-verify": ["frobenius", "verify", "--offset-json", offset],
        }
        yield [Op(verb, "cli", ("--json", *argvs[verb])) for verb in CLI_VERBS]


WORKLOADS = {
    "group_law": group_law_cycles,
    "decide": decide_cycles,
    "lattice": lattice_cycles,
    "cli": cli_cycles,
}
