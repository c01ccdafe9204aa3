"""Test-only references for holonomy subgroups.

``listing_is_bieberbach`` is the Bieberbach decision by listing: it runs
``torsion_witness`` on every non-identity element of the group, which the
engine replaced by a test on the group order.  ``mul_walk_abelianization``
is ``H_1`` of a preimage by the group law, which the engine replaced by
orbit sums and permutation products.  ``generator_sets`` draws seeded
generator sets whose groups are small enough to list.
"""

import random

from braidcryst import zlinalg
from braidcryst.braidword import PairVector, VerificationError, pair_images
from braidcryst.permutation import Permutation
from braidcryst.quotient import QuotientElement, inverse, mul
from braidcryst.subgroups import HolonomySubgroup
from braidcryst.torsion import torsion_witness


def listing_is_bieberbach(H: HolonomySubgroup) -> bool:
    """No non-identity element of ``H`` admits a torsion witness."""
    for p in H.elements:
        if p.is_identity():
            continue
        if torsion_witness(p) is not None:
            return False
    return True


def mul_walk_abelianization(H: HolonomySubgroup) -> tuple[int, list[int]]:
    """``H_1`` of the preimage ``G`` of ``H``, as ``(free_rank, factors)``.

    ``G`` is presented on the ``N`` pair-lattice generators ``A_P`` followed
    by the zero-vector lift ``t_s`` of each generator ``s`` of ``H``.  The
    relators are the lattice commutators (zero rows once abelianized),
    ``t_s A_Q t_s^-1 = A_P`` for each pair ``P`` that ``s`` moves to ``Q``
    (rows ``e_P - e_Q``), and one relator per edge off a breadth-first
    spanning tree of the Cayley graph of ``H``: with ``w(h)`` the product of
    lifts along the tree path to ``h``, ``w(h) t_s w(hs)^-1`` is a lattice
    element ``A^v``, evaluated with ``mul``, and its row is the
    lift-exponent difference minus ``v``.  The off-tree edges present ``H``
    (Schreier), so these relators present ``G``.
    """
    H._check_listable()
    n, gens = H.n, H.generators
    N, k = n * (n - 1) // 2, len(gens)
    rows = {
        tuple((c == P) - (c == Q) for c in range(N + k))
        for s in gens for P, Q in enumerate(pair_images(s)) if P != Q
    }
    lifts = [QuotientElement(s, PairVector.zero(n)) for s in gens]
    queue = [(QuotientElement.identity(n), [0] * k)]
    tree = {queue[0][0].perm: queue[0]}
    for w, exps in queue:
        for index, t in enumerate(lifts):
            ws = mul(w, t)
            ws_exps = exps.copy()
            ws_exps[index] += 1
            if ws.perm not in tree:
                tree[ws.perm] = ws, ws_exps
                queue.append(tree[ws.perm])
                continue
            w_hs, hs_exps = tree[ws.perm]
            relator = mul(ws, inverse(w_hs))
            if not relator.is_pure():
                raise VerificationError("a Cayley-graph relator of the preimage is not pure")
            rows.add((*(-c for c in relator.vec.coeffs), *(a - b for a, b in zip(ws_exps, hs_exps))))
    return zlinalg.abelianization(sorted(rows), N + k)


def generator_sets(seed, count, max_n=9):
    """``count`` seeded ``(n, generators)`` pairs with ``2 <= n <= max_n``.

    Each set has one to three generators inside one random frame of three
    to seven points (two when n = 2).  A generator is a random non-identity
    permutation of a random part of the frame, raised to a random power in
    {1, 2, 3} unless that gives the identity, so the groups range from
    cyclic through 2-groups and odd-order groups up to S_7 (5040 elements)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        frame = rng.sample(range(1, n + 1), rng.randint(min(n, 3), min(n, 7)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = Permutation.identity(n)
            while g.is_identity():
                part = rng.sample(frame, rng.randint(2, len(frame)))
                images = list(range(1, n + 1))
                for a, b in zip(part, rng.sample(part, len(part))):
                    images[a - 1] = b
                g = Permutation(tuple(images))
            g_power = g ** rng.randint(1, 3)
            gens.append(g if g_power.is_identity() else g_power)
        out.append((n, tuple(gens)))
    return out
