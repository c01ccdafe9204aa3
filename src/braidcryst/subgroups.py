"""Crystallographic subgroup analysis: holonomy representation, Bieberbach
certification, preimage presentations, and the three-strand catalog.

The preimage of a subgroup ``H`` of the symmetric group is a crystallographic
group with translation lattice the pair lattice and holonomy ``H`` acting by
the pair representation.  A preimage (or a finite-index subgroup of one given
by a sublattice and coset data) is Bieberbach exactly when it is torsion
free, and torsion is decidable: through ``torsion_witness`` for full
preimages, and through an orbit-sum linear system for sublattice data.
:func:`preimage_abelianization` abelianizes a preimage from permutation
products and orbit sums alone, on one column per ``H``-orbit of pairs and
one per generator, checking the parity of each relator row; the three-strand
catalog reports it for each subgroup of S_3.

``torsion`` and ``zlinalg`` are imported by the functions that use them, so
deciding a preimage loads neither of them.
"""

from __future__ import annotations

import random
from typing import Sequence

from .braidword import BraidWord, PairVector, VerificationError, pair_images, pair_offsets, pairs
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
    """Determinant of :func:`holonomy_matrix`: a transposition ``(a b)``
    swaps ``n - 2`` pairs of pairs, ``{a, c}`` and ``{b, c}``, so it is -1
    exactly for odd ``p`` at odd ``n``."""
    return -1 if p.n % 2 and p.parity() else 1


class HolonomySubgroup(Record):
    """A subgroup of S_n kept as its generators alone: each read of
    ``order`` builds a stabilizer chain; ``elements`` lists small groups."""

    __slots__ = _fields = ("n", "generators")
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

    def _check_listable(self) -> None:
        """Raise ``ValueError`` if the group has more than ``CLOSURE_LIMIT``
        elements, which holds back every walk over all of them."""
        if (order := self.order) > CLOSURE_LIMIT:
            raise ValueError(
                f"the group has {order} elements, more than {CLOSURE_LIMIT}; "
                "refusing to list them"
            )

    @property
    def elements(self) -> tuple[Permutation, ...]:
        self._check_listable()
        found = closure(Permutation.identity(self.n), self.generators)
        return tuple(sorted(found, key=lambda p: p.images))

    @property
    def order(self) -> int:
        """The product of the transversal sizes of a stabilizer chain, built
        anew on each read."""
        return StabilizerChain(self.n, self.generators).order()


def is_bieberbach(H: HolonomySubgroup) -> bool:
    """Is the full preimage of ``H`` torsion free?

    A permutation lifts to a torsion element exactly when its order is odd
    (:func:`torsion_witness`), and by Cauchy's theorem ``H`` has an element
    of odd order exactly when ``|H|`` is not a power of 2."""
    order = H.order
    return order & (order - 1) == 0


def torsion_certificate(chain: StabilizerChain) -> QuotientElement | None:
    """An element of odd prime order ``q`` in the preimage of the group ``H``
    that ``chain`` holds; ``None`` exactly when ``|H|`` is a power of 2,
    that is, when :func:`is_bieberbach` holds.

    Uniform draws from the chain, with a fixed seed so the answer is the
    same on every run, stop at the first element whose order has an odd
    prime factor ``q``; at least ``1/n`` of ``H`` qualifies
    (Isaacs-Kantor-Spaltenstein, J. Algebra 176, 1995).  Its power of order
    ``q`` is lifted by :func:`torsion_witness`, which checks ``g^q == 1``."""
    order, rng = chain.order(), random.Random(0)
    if order & (order - 1) == 0:
        return None
    from .torsion import torsion_witness

    while True:
        p = chain.random_element(rng)
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
    for v in lattice_gens:
        if v.n != coset_rep.n:
            raise ValueError("degree mismatch")
    gens = [list(v.coeffs) for v in lattice_gens] + [list(power(coset_rep, m).vec.coeffs)]
    # invariance of L1 under the pair action of the coset representative
    images = pair_images(p)
    for row in gens:
        if not lattice_contains(gens, [row[k] for k in images]):
            raise ValueError("lattice is not invariant under the coset action")

    # one row per orbit; the unknowns are the multipliers of the generators
    off, rows, rhs, trail = pair_offsets(coset_rep.n), [], [], []
    for _, size, s in orbit_sums(coset_rep, trail):
        rows.append([2 * sum(g[off[i] + j] for (i, j) in trail[-size:]) for g in gens])
        rhs.append(-s)
    return solve_integer(rows, rhs) is None


# --- preimage presentations and the three-strand catalog -----------------


def preimage_abelianization(H: HolonomySubgroup) -> tuple[int, list[int]]:
    """``H_1`` of the preimage ``G`` of ``H``, as ``(free_rank, factors)``
    from :func:`zlinalg.abelianization`.

    With ``pi`` summing each ``H``-orbit of pairs and ``f`` the inversion
    indicator of :func:`quotient.orbit_sums`, ``(h, v) -> (h, 2 pi(v) +
    pi(f(h)))`` maps ``G`` into ``H x Z^orbits`` with kernel the commutators
    ``A^(e_P - e_hP) = [A_P, t_h]``.  So ``G`` abelianizes like the image: on
    columns ``a_O = (1, 2 e_O)`` per orbit ``O`` and the zero-vector lift
    ``t_s = (s, Phi[s])`` per generator ``s``, ``Phi[s]`` summed from the
    orbit sums of ``t_s``.  The ``a_O`` are central; each edge off a
    breadth-first tree of the Cayley graph of ``H``, walked by permutation
    products, with lift-exponent difference ``d`` gives ``t^d = a^(d.Phi/2)``,
    the row ``(-d.Phi/2, d)``, and these present ``H`` (Schreier).  An odd
    ``d.Phi`` raises ``VerificationError``.  The free rank is the number of
    orbits.  A group past ``CLOSURE_LIMIT`` is refused before the walk.
    """
    from .zlinalg import abelianization

    H._check_listable()
    n, gens = H.n, H.generators
    moves = [pair_images(s) for s in gens]
    label: list = [None] * (n * (n - 1) // 2)
    orbits = 0
    for start in range(len(label)):
        if label[start] is None:
            label[start], queue = orbits, [start]
            for P in queue:
                for images in moves:
                    if label[images[P]] is None:
                        label[images[P]] = orbits
                        queue.append(images[P])
            orbits += 1
    Phi, off = [[0] * orbits for _ in gens], pair_offsets(n)
    for row, s in zip(Phi, gens):
        for (i, j), _, total in orbit_sums(QuotientElement(s, PairVector.zero(n))):
            row[label[off[i] + j]] += total
    # a set: the Cayley graph repeats most relator rows, and the
    # elimination is cheaper without the copies
    rows = set()
    queue = [Permutation.identity(n)]
    tree = {queue[0]: [0] * len(gens)}
    for h in queue:
        for index, s in enumerate(gens):
            hs, exps = h * s, tree[h].copy()
            exps[index] += 1
            if hs not in tree:
                tree[hs] = exps
                queue.append(hs)
                continue
            d = [a - b for a, b in zip(exps, tree[hs])]
            value = [sum(c * row[O] for c, row in zip(d, Phi)) for O in range(orbits)]
            if any(x % 2 for x in value):
                raise VerificationError("a Cayley-graph relator of the preimage has an odd orbit sum")
            rows.add((*(-x // 2 for x in value), *d))
    return abelianization(sorted(rows), orbits + len(gens))


def three_strand_catalog() -> dict:
    """Soundness report for the catalog of preimages over three strands.

    For each subgroup of S_3 (up to conjugacy): the abelianization of its
    preimage by :func:`preimage_abelianization`, which checks the parity of
    every relator row in the engine (it raises otherwise, so
    ``relators_verified`` is always true), the holonomy matrices of its
    generators with determinant spectrum, and the Bieberbach verdict.  Two designated finite-index
    subgroups of the three-cycle preimage are also decided: index-three
    lattice scaling makes a torsion-free (Bieberbach) group, index-two
    scaling does not.
    """
    report: dict = {"n": 3, "subgroups": []}
    for name, texts in (
        ("trivial", ()),
        ("three_cycle", ("(1,3,2)",)),
        ("transposition", ("(1,2)",)),
        ("symmetric", ("(1,2)", "(2,3)")),
    ):
        H = HolonomySubgroup.from_cycle_texts(3, texts)
        free_rank, factors = preimage_abelianization(H)
        report["subgroups"].append(
            {
                "name": name,
                "generators": [str(p) for p in H.generators],
                "holonomy_order": H.order,
                "relators_verified": True,
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
