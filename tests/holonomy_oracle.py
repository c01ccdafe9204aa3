"""Test-only references for holonomy subgroups.

``listing_is_bieberbach`` is the Bieberbach decision by listing: it runs
``torsion_witness`` on every non-identity element of the group, which the
engine replaced by a test on the group order.  ``generator_sets`` draws
seeded generator sets whose groups are small enough to list.
"""

import random

from braidcryst.permutation import Permutation
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
