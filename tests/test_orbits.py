"""Pair-basis orbit tables: closed form vs direct enumeration."""

import random
import sys
from collections import Counter

from braidcryst.braidword import BraidWord, pair_index, pairs
from braidcryst.orbits import closed_form_orbits, enumerate_orbits, relabeled_basis
from braidcryst.quotient import normalize
from braidcryst.torsion import BlockSpec, block_cycle, iter_block_specs, torsion_element


def test_closed_form_matches_enumeration_everywhere():
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            assert closed_form_orbits(spec).orbits == enumerate_orbits(
                torsion_element(spec)
            ).orbits


def test_closed_form_orbits_are_formula_only(monkeypatch):
    # with no way to build or multiply an element, every table for n <= 12
    # still comes out equal to the enumerated one
    specs = [spec for n in range(2, 13) for spec in iter_block_specs(n)]
    expected = [enumerate_orbits(torsion_element(spec)).orbits for spec in specs]

    def refuse(*args):
        raise AssertionError("an orbit table built or multiplied an element")

    stubbed = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "braidcryst":
            for attr in ("torsion_element", "normalize", "mul"):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, refuse)
                    stubbed.add(attr)
    assert stubbed == {"torsion_element", "normalize", "mul"}
    assert [closed_form_orbits(spec).orbits for spec in specs] == expected


def test_orbit_tables_partition_the_basis():
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            table = closed_form_orbits(spec)
            seen = sorted(P for orbit in table.orbits for P in orbit)
            assert seen == sorted(pairs(n))
            assert table.sizes() == tuple(len(o) for o in table.orbits)


def test_closed_form_tables_share_the_pair_tuples():
    for n in range(2, 13):
        basis = pairs(n)
        for spec in iter_block_specs(n):
            for orbit in closed_form_orbits(spec).orbits:
                for P in orbit:
                    assert basis[pair_index(n, *P)] is P


def test_orbits_follow_the_action():
    for n in (5, 7, 9):
        for spec in iter_block_specs(n):
            g = torsion_element(spec)
            for orbit in closed_form_orbits(spec).orbits:
                for t, P in enumerate(orbit):
                    assert g.perm.inverse().pair_action(P) == orbit[(t + 1) % len(orbit)]


def test_full_cycle_orbit_census():
    # the positive n-cycle: floor((n-1)/2) orbits of size n, plus one of
    # size n/2 when n is even
    for n in range(3, 10):
        table = enumerate_orbits(block_cycle(0, n, n))
        sizes = sorted(table.sizes(), reverse=True)
        expect = [n] * ((n - 1) // 2)
        if n % 2 == 0:
            expect += [n // 2]
        assert sizes == sorted(expect, reverse=True)


def test_single_block_orbit_sizes():
    # an odd k-block inside n strands: (k-1)/2 orbits of size k inside the
    # block, the pairs meeting the block fall into (n-k) orbits of size k,
    # and untouched pairs are fixed
    for (k, n) in [(3, 3), (3, 5), (5, 7), (7, 9)]:
        table = enumerate_orbits(torsion_element(BlockSpec(n, (k,))))
        sizes = sorted(table.sizes(), reverse=True)
        inside = (k - 1) // 2
        crossing = n - k
        fixed = (n - k) * (n - k - 1) // 2
        assert sizes == [k] * (inside + crossing) + [1] * fixed


def test_enumerate_on_generic_element():
    rng = random.Random(17)
    for n in (4, 6):
        for _ in range(10):
            letters = [x for x in range(-(n - 1), n) if x]
            w = BraidWord(n, tuple(rng.choice(letters) for _ in range(8)))
            g = normalize(w)
            table = enumerate_orbits(g)
            assert sorted(P for o in table.orbits for P in o) == sorted(pairs(n))
            for orbit in table.orbits:
                assert orbit[0] == min(orbit)


def test_orbit_table_json():
    table = closed_form_orbits(BlockSpec(4, (3,)))
    data = table.to_json()
    assert data == [
        ["1,2", "1,3", "2,3"],
        ["1,4", "3,4", "2,4"],
    ]


def test_relabeled_basis_bijective():
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            labels = relabeled_basis(spec)
            assert sorted(labels.keys()) == sorted(pairs(n))
            assert len(set(labels.values())) == len(labels)


def test_relabeled_basis_names_orbit_coordinates():
    # "b" labels name the block point, "d" labels the pair itself, and "a"
    # and "c" labels count steps along the action, one per step
    for n in range(3, 10):
        for spec in iter_block_specs(n):
            g = torsion_element(spec)
            labels = relabeled_basis(spec)
            pair_of = {label: P for P, label in labels.items()}
            lengths = Counter(label[:-1] for label in labels.values())
            for P, label in labels.items():
                if label[0] == "b":
                    _, r, j, t = label
                    assert P == (spec.offsets()[r - 1] + t, j)
                elif label[0] == "d":
                    assert P == label[1:]
                else:
                    *prefix, t = label
                    step = (*prefix, t % lengths[tuple(prefix)] + 1)
                    assert g.perm.inverse().pair_action(P) == pair_of[step]


def test_frozen_seven_cycle_table():
    # the 7-strand full-cycle orbits, after the relabeling i -> i+1
    spec = BlockSpec(7, (7,))
    got = [
        ["".join(map(str, P)) for P in orbit]
        for orbit in closed_form_orbits(spec).orbits
    ]
    assert len(got) == 3 and all(len(o) == 7 for o in got)
