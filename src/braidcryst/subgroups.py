"""Crystallographic subgroup analysis: holonomy representation, Bieberbach
certification, and the full three-strand catalog.

The preimage of a subgroup ``H`` of the symmetric group is a crystallographic
group with translation lattice the pair lattice and holonomy ``H`` acting by
the pair representation.  A preimage (or a finite-index subgroup of one given
by a sublattice and coset data) is Bieberbach exactly when it is torsion
free, and torsion is decidable: through ``torsion_witness`` for full
preimages, and through an orbit-sum linear system for sublattice data.

``torsion`` and ``zlinalg`` are imported by the functions that use them, so
deciding a preimage loads neither of them.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Sequence

from .braidword import BraidWord, PairVector, pair_images, pair_index, pairs, pure_generator_word
from .permutation import CLOSURE_LIMIT, Permutation, Record, StabilizerChain, closure
from .quotient import QuotientElement, normalize, orbit_sums, power


HOLONOMY_MATRIX_LIMIT = 2**24
"""Most entries :func:`holonomy_matrix` builds: ``(n(n-1)/2)^2`` passes it
from ``n = 92`` on."""


def holonomy_matrix(p: Permutation) -> list[list[int]]:
    """Matrix of the pair representation on lex-ordered pair coordinates, as
    a list of rows: row ``Q`` has its 1 in column ``pair_action(p, Q)``.
    Matrices multiply along left-to-right composition of permutations."""
    size = p.n * (p.n - 1) // 2
    if size * size > HOLONOMY_MATRIX_LIMIT:
        raise ValueError(
            f"the holonomy matrix at n={p.n} has {size * size} entries, "
            f"more than {HOLONOMY_MATRIX_LIMIT}; refusing to build it"
        )
    images = pair_images(p)
    M = [[0] * len(images) for _ in images]
    for row, col in enumerate(images):
        M[row][col] = 1
    return M


def holonomy_det(p: Permutation) -> int:
    """Determinant of :func:`holonomy_matrix`, computed exactly as the sign
    of the induced pair permutation."""
    images = tuple(k + 1 for k in pair_images(p))
    return -1 if Permutation(images).parity() else 1


class HolonomySubgroup(Record):
    """A subgroup of S_n given by generators.  Order and membership come from
    a stabilizer chain; ``elements`` lists the group when it is small enough."""

    _fields = ("n", "generators")
    n: int
    generators: tuple[Permutation, ...]

    def __init__(self, n: int, generators: tuple[Permutation, ...]) -> None:
        for g in generators:
            if g.n != n:
                raise ValueError("degree mismatch among generators")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)

    @staticmethod
    def from_cycle_texts(n: int, texts: Sequence[str]) -> "HolonomySubgroup":
        return HolonomySubgroup(
            n, tuple(Permutation.from_text(n, t) for t in texts)
        )

    @cached_property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain that membership and ``torsion_certificate``
        sift through."""
        return StabilizerChain(self.n, self.generators)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        if self.order > CLOSURE_LIMIT:
            raise ValueError(
                f"the group has {self.order} elements, more than {CLOSURE_LIMIT}; "
                "refusing to list them"
            )
        found = closure(Permutation.identity(self.n), self.generators)
        return tuple(sorted(found, key=lambda p: p.images))

    @cached_property
    def order(self) -> int:
        """The product of the transversal sizes of a stabilizer chain.  Only
        the number is kept: a subgroup asked just its order, as in
        :func:`is_bieberbach`, holds no chain."""
        return StabilizerChain(self.n, self.generators).order()

    def __contains__(self, p: Permutation) -> bool:
        return p in self.chain


def is_bieberbach(H: HolonomySubgroup) -> bool:
    """Is the full preimage of ``H`` torsion free?

    A permutation lifts to a torsion element exactly when its order is odd
    (:func:`torsion_witness`), and by Cauchy's theorem ``H`` has an element
    of odd order exactly when ``|H|`` is not a power of 2."""
    order = H.order
    return order & (order - 1) == 0


def torsion_certificate(H: HolonomySubgroup) -> QuotientElement | None:
    """An element of odd prime order ``q`` in the preimage of ``H``; ``None``
    exactly when :func:`is_bieberbach`.

    Uniform draws from the stabilizer chain, with a fixed seed so the answer
    is the same on every run, stop at the first element whose order has an
    odd prime factor ``q``; at least ``1/n`` of ``H`` qualifies
    (Isaacs-Kantor-Spaltenstein, J. Algebra 176, 1995).  Its power of order
    ``q`` is lifted by :func:`torsion_witness`, which checks ``g^q == 1``."""
    from .torsion import torsion_witness

    if is_bieberbach(H):
        return None
    rng = random.Random(0)
    while True:
        p = H.chain.random_element(rng)
        m = p.order()
        odd = m // (m & -m)
        if odd > 1:
            break
    q = next(d for d in range(3, odd + 1, 2) if odd % d == 0)
    p = p ** (m // q)
    return QuotientElement(p, torsion_witness(p))


def sublattice_is_torsion_free(
    coset_rep: QuotientElement, lattice_gens: Sequence[PairVector]
) -> bool:
    """Torsion decision for the subgroup generated by ``coset_rep`` together
    with a sublattice.

    ``perm(coset_rep)`` must have prime order ``m``; the sublattice ``L1`` is
    spanned by ``lattice_gens`` and the vector of ``coset_rep^m``, and must be
    invariant under the pair action (checked).  The subgroup is the union of
    the cosets ``L1 * coset_rep^j``.  For ``0 < j < m`` the orbits of ``p^j``
    are those of ``p``, so by :func:`quotient.orbit_sums` ``A^t * coset_rep^j``
    has finite order exactly when ``2 * sum over O of t = -j * s_O`` on every
    orbit ``O``.  The ``j`` for which some ``t`` in ``L1`` solves this form a
    subgroup of the integers; it contains ``m``, because the generator
    ``vec(coset_rep^m)`` contributes ``m * s_O`` to each row.  With ``m``
    prime it is ``mZ`` or everything, so one solve at ``j = 1`` decides.
    """
    from .zlinalg import lattice_contains, solve_integer

    p = coset_rep.perm
    m = p.order()
    if m < 2 or any(m % d == 0 for d in range(2, m)):
        raise ValueError("coset representative permutation must have prime order")
    gens = [list(v.coeffs) for v in lattice_gens] + [list(power(coset_rep, m).vec.coeffs)]
    for v in lattice_gens:
        if v.n != coset_rep.n:
            raise ValueError("degree mismatch")
    # invariance of L1 under the pair action of the coset representative
    for row in list(gens):
        moved = PairVector(coset_rep.n, tuple(row)).precompose(p)
        if not lattice_contains(gens, list(moved.coeffs)):
            raise ValueError("lattice is not invariant under the coset action")

    # one row per orbit; the unknowns are the multipliers of the generators
    rows, rhs = [], []
    for orbit, s in orbit_sums(coset_rep):
        rows.append([2 * sum(g[pair_index(coset_rep.n, i, j)] for (i, j) in orbit) for g in gens])
        rhs.append(-s)
    return solve_integer(rows, rhs) is None


# --- three-strand catalog -------------------------------------------------

_A12 = pure_generator_word(3, 1, 2)
_A13 = pure_generator_word(3, 1, 3)
_A23 = pure_generator_word(3, 2, 3)
_S1 = BraidWord(3, (1,))
_S2 = BraidWord(3, (2,))
_ALPHA3 = BraidWord(3, (1, 2))


def _relator_word(gen_words: Sequence[BraidWord], relator: Sequence[tuple[int, int]]) -> BraidWord:
    word = BraidWord(3, ())
    for index, exponent in relator:
        g = gen_words[index]
        if exponent < 0:
            g = g.inverse()
        for _ in range(abs(exponent)):
            word = word * g
    return word


def _relator_row(count: int, relator: Sequence[tuple[int, int]]) -> list[int]:
    row = [0] * count
    for index, exponent in relator:
        row[index] += exponent
    return row


_COMMS = [
    [(0, 1), (1, 1), (0, -1), (1, -1)],
    [(0, 1), (2, 1), (0, -1), (2, -1)],
    [(1, 1), (2, 1), (1, -1), (2, -1)],
]

_CATALOG_DATA = [
    {
        "name": "trivial",
        "subgroup": (),
        "gen_names": ("A12", "A13", "A23"),
        "gen_words": (_A12, _A13, _A23),
        "relators": _COMMS,
    },
    {
        "name": "three_cycle",
        "subgroup": ("(1,3,2)",),
        "gen_names": ("A12", "A23", "A13", "a"),
        "gen_words": (_A12, _A23, _A13, _ALPHA3),
        "relators": [
            [(0, 1), (2, 1), (0, -1), (2, -1)],
            [(0, 1), (1, 1), (0, -1), (1, -1)],
            [(2, 1), (1, 1), (2, -1), (1, -1)],
            [(3, 3), (1, -1), (2, -1), (0, -1)],    # a^3 = A12 A13 A23
            [(3, 1), (0, 1), (3, -1), (1, -1)],     # a A12 a^-1 = A23
            [(3, 1), (2, 1), (3, -1), (0, -1)],     # a A13 a^-1 = A12
            [(3, 1), (1, 1), (3, -1), (2, -1)],     # a A23 a^-1 = A13
        ],
    },
    {
        "name": "transposition",
        "subgroup": ("(1,2)",),
        "gen_names": ("A12", "A23", "A13", "s1"),
        # generator order: lattice (A12, A23, A13), then the transposition lift
        "gen_words": (_A12, _A23, _A13, _S1),
        "relators": [
            [(0, 1), (2, 1), (0, -1), (2, -1)],
            [(0, 1), (1, 1), (0, -1), (1, -1)],
            [(2, 1), (1, 1), (2, -1), (1, -1)],
            [(3, 2), (0, -1)],                      # s1^2 = A12
            [(3, 1), (0, 1), (3, -1), (0, -1)],     # s1 A12 s1^-1 = A12
            [(3, 1), (2, 1), (3, -1), (1, -1)],     # s1 A13 s1^-1 = A23
            [(3, 1), (1, 1), (3, -1), (2, -1)],     # s1 A23 s1^-1 = A13
        ],
    },
    {
        "name": "symmetric",
        "subgroup": ("(1,2)", "(2,3)"),
        "gen_names": ("s1", "s2"),
        "gen_words": (_S1, _S2),
        "relators": [
            [(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)],  # braid relation
            [(0, -1), (1, 1)] * 3,                                # (s1^-1 s2)^3
        ],
    },
]


def three_strand_catalog() -> dict:
    """Soundness report for the catalog of preimages over three strands.

    For each subgroup of S_3 (up to conjugacy): the defining relators of its
    preimage presentation checked in the engine, the abelianization, the
    holonomy matrices of its generators with determinant spectrum, and the
    Bieberbach verdict.  Two designated finite-index subgroups of the
    three-cycle preimage are also decided: index-three lattice scaling makes
    a torsion-free (Bieberbach) group, index-two scaling does not.
    """
    from .zlinalg import abelianization

    report: dict = {"n": 3, "subgroups": []}
    for data in _CATALOG_DATA:
        H = HolonomySubgroup.from_cycle_texts(3, data["subgroup"])
        gen_words = data["gen_words"]
        relators_ok = all(
            normalize(_relator_word(gen_words, rel)).is_identity()
            for rel in data["relators"]
        )
        rows = [_relator_row(len(gen_words), rel) for rel in data["relators"]]
        free_rank, factors = abelianization(rows, len(gen_words))
        report["subgroups"].append(
            {
                "name": data["name"],
                "generators": [str(p) for p in H.generators],
                "holonomy_order": H.order,
                "relators_verified": relators_ok,
                "abelianization": [free_rank, *factors],
                "holonomy_generators": [
                    holonomy_matrix(p) for p in H.generators
                ],
                "det_spectrum": sorted({holonomy_det(p) for p in H.elements}),
                "bieberbach": is_bieberbach(H),
            }
        )

    # designated sublattice examples inside the three-cycle preimage
    cube = [PairVector.basis(3, i, j).scaled(3) for (i, j) in pairs(3)]
    square = [PairVector.basis(3, i, j).scaled(2) for (i, j) in pairs(3)]
    report["bieberbach_example"] = {
        "coset_rep": "A12 * s1^-1 s2",
        "lattice": "cubes of the pair generators",
        "torsion_free": sublattice_is_torsion_free(
            normalize(BraidWord.from_text(3, "1 1 -1 2")), cube
        ),
    }
    report["torsion_example"] = {
        "coset_rep": "s1^-1 s2",
        "lattice": "squares of the pair generators",
        "torsion_free": sublattice_is_torsion_free(
            normalize(BraidWord.from_text(3, "-1 2")), square
        ),
    }
    return report
