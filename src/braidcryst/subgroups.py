"""Crystallographic subgroup analysis: holonomy representation, Bieberbach
certification, and the full three-strand catalog.

The preimage of a subgroup ``H`` of the symmetric group is a crystallographic
group with translation lattice the pair lattice and holonomy ``H`` acting by
the pair representation.  A preimage (or a finite-index subgroup of one given
by a sublattice and coset data) is Bieberbach exactly when it is torsion
free, and torsion is decidable: through ``torsion_witness`` for full
preimages, and through an orbit-sum linear system for sublattice data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .braidword import BraidWord, PairVector, pair_images, pair_index, pairs, pure_generator_word
from .permutation import Permutation, all_permutations, closure
from .quotient import QuotientElement, basis_orbits, normalize, power
from .torsion import torsion_witness
from .zlinalg import abelianization, lattice_contains, solve_integer


def holonomy_matrix(p: Permutation) -> list[list[int]]:
    """Matrix of the pair representation on lex-ordered pair coordinates, as
    a list of rows: row ``Q`` has its 1 in column ``pair_action(p, Q)``.
    Matrices multiply along left-to-right composition of permutations."""
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


def pair_representation_faithful(n: int) -> bool:
    """Is the pair action of S_n faithful?  Exhaustive for n <= 7; beyond
    that any non-identity permutation moving i lets the pair {i, k} move for
    every k outside {i, p(i)}, so the answer is True for all n >= 3."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 7:
        return True
    fixed = list(range(n * (n - 1) // 2))
    for p in all_permutations(n):
        if not p.is_identity() and pair_images(p) == fixed:
            return False
    return True


@dataclass(frozen=True)
class HolonomySubgroup:
    """A subgroup of S_n given by generators; elements are closed over."""

    n: int
    generators: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("degree mismatch among generators")

    @staticmethod
    def from_cycle_texts(n: int, texts: Sequence[str]) -> "HolonomySubgroup":
        return HolonomySubgroup(
            n, tuple(Permutation.from_text(n, t) for t in texts)
        )

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        found = closure(Permutation.identity(self.n), self.generators)
        return tuple(sorted(found, key=lambda p: p.images))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in set(self.elements)


@dataclass(frozen=True)
class PreimageDescriptor:
    """The preimage of a permutation subgroup in the quotient: a
    crystallographic group of dimension ``n(n-1)/2`` with holonomy ``H``.
    ``generator_matrices`` holds one :func:`holonomy_matrix` (a list of
    rows) per generator of ``H``."""

    subgroup: HolonomySubgroup
    lattice_rank: int
    generator_matrices: tuple[list[list[int]], ...]

    def contains(self, g: QuotientElement) -> bool:
        if g.n != self.subgroup.n:
            raise ValueError("degree mismatch")
        return g.perm in self.subgroup


def preimage_subgroup(H: HolonomySubgroup) -> PreimageDescriptor:
    n = H.n
    return PreimageDescriptor(
        subgroup=H,
        lattice_rank=n * (n - 1) // 2,
        generator_matrices=tuple(holonomy_matrix(g) for g in H.generators),
    )


def is_bieberbach(H: HolonomySubgroup) -> bool:
    """Is the full preimage of ``H`` torsion free?  Equivalent to: no
    non-identity element of ``H`` admits a torsion witness (so: no element
    of odd order >= 3)."""
    for p in H.elements:
        if p.is_identity():
            continue
        if torsion_witness(p) is not None:
            return False
    return True


def sublattice_is_torsion_free(
    coset_rep: QuotientElement, lattice_gens: Sequence[PairVector]
) -> bool:
    """Torsion decision for the subgroup generated by ``coset_rep`` together
    with a sublattice.

    ``perm(coset_rep)`` must have prime order ``m``; the sublattice ``L1`` is
    spanned by ``lattice_gens`` and the vector of ``coset_rep^m``, and must be
    invariant under the pair action (checked).  The subgroup is the union of
    the cosets ``L1 * coset_rep^j``; a torsion element ``A^t * coset_rep^j``
    (0 < j < m) of order m exists exactly when, for every orbit O of the pair
    action with size q, ``(m/q) * orbit_sum(t) = -j * orbit_value(c^m)`` has
    an integer solution with ``t`` in ``L1``.
    """
    p = coset_rep.perm
    m = p.order()
    if m < 2 or any(m % d == 0 for d in range(2, m)):
        raise ValueError("coset representative permutation must have prime order")
    t_vec = power(coset_rep, m).vec
    gens = [list(v.coeffs) for v in lattice_gens] + [list(t_vec.coeffs)]
    for v in lattice_gens:
        if v.n != coset_rep.n:
            raise ValueError("degree mismatch")
    # invariance of L1 under the pair action of the coset representative
    for row in list(gens):
        moved = PairVector(coset_rep.n, tuple(row)).precompose(p)
        if not lattice_contains(gens, list(moved.coeffs)):
            raise ValueError("lattice is not invariant under the coset action")

    # rows: one equation per orbit, unknowns = multipliers of the generators
    rows = []
    t_values = []
    for orbit in basis_orbits(coset_rep):
        q = len(orbit)
        share = m // q
        rows.append(
            [share * sum(g[pair_index(coset_rep.n, i, j)] for (i, j) in orbit) for g in gens]
        )
        t_values.append(t_vec.coefficient(*orbit[0]))
    for j in range(1, m):
        rhs = [-j * t for t in t_values]
        if solve_integer(rows, rhs) is not None:
            return False
    return True


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
