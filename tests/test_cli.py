"""The braidcryst command line front end."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import braidcryst
from braidcryst.cli import build_parser, main
from braidcryst.permutation import StabilizerChain
from braidcryst.quotient import QuotientElement
from braidcryst.subgroups import HolonomySubgroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_nf_identity_word(capsys):
    code, out, _ = run(capsys, "--n", "3", "--json", "nf", "-1 2 -1 2 -1 2")
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [1, 2, 3]
    assert all(c == 0 for c in data["vec"].values()) or data["vec"] == {}


def test_nf_empty_word(capsys):
    code, out, _ = run(capsys, "--n", "3", "--json", "nf", "")
    assert code == 0
    assert json.loads(out)["perm"] == [1, 2, 3]


def test_nf_text_output(capsys):
    code, out, _ = run(capsys, "--n", "3", "nf", "1 1")
    assert code == 0
    assert "|" in out


def test_order_of_delta_word(capsys):
    code, word, _ = run(capsys, "--n", "7", "delta", "--blocks", "7", "--emit-word")
    assert code == 0
    assert word == "6 5 4 -3 -2 -1"
    code, out, _ = run(capsys, "--n", "7", "order", word)
    assert code == 0
    assert out == "7"


def test_delta_prints_the_block_element(capsys):
    code, out, _ = run(capsys, "--n", "7", "delta", "--blocks", "3,3")
    assert code == 0
    assert out == "(1,2,3)(4,5,6) | {1,3}:-1, {4,6}:-1"
    code, out, _ = run(capsys, "--n", "7", "--json", "delta", "--blocks", "3,3")
    assert code == 0
    assert json.loads(out) == braidcryst.torsion_element(braidcryst.BlockSpec(7, (3, 3))).to_json()


def test_order_infinite(capsys):
    code, out, _ = run(capsys, "--n", "3", "order", "1")
    assert code == 0
    assert out == "infinite"
    code, out, _ = run(capsys, "--n", "3", "--json", "order", "1")
    assert json.loads(out) == {"order": None}


README_COMMANDS = [
    line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("braidcryst ")
]


def _readme_argument(token):
    """``token``, or the output of the command in ``$(...)``, as the shell
    would substitute it."""
    if not token.startswith("$("):
        return token
    code, out, _ = _call(*shlex.split(token[2:-1])[1:])
    assert code == 0, token
    return out.rstrip("\n")


def test_readme_has_command_examples():
    assert len(README_COMMANDS) >= 10


def _verbs(parser):
    """The subcommand parsers of ``parser``, by name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_readme_names_every_verb():
    # a verb or frobenius subcommand is named in README's CLI section, in
    # backticks or as the verb of an example command line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("\n## CLI\n")[2].partition("\n## ")[0]
    examples = [line.split() for line in section.splitlines() if line.startswith("braidcryst ")]
    verbs = _verbs(build_parser())
    steps = _verbs(verbs["frobenius"])
    assert verbs and steps
    for verb in verbs:
        assert f"`{verb}`" in section or any(verb in line for line in examples), verb
    for step in steps:
        assert f"frobenius {step}" in section, step


@pytest.mark.parametrize("line", README_COMMANDS, ids=lambda line: line.split("#")[0].strip())
def test_readme_command_runs(line):
    # a README that names a removed verb or flag fails here; on a line
    # without --json, the trailing comment (up to two spaces) is the output
    argv = [_readme_argument(token) for token in shlex.split(line, comments=True)[1:]]
    code, out, err = _call(*argv)
    assert (code, err) == (0, []), line
    comment = line.partition("#")[2].strip()
    if comment and "--json" not in argv:
        assert out.strip() == comment.split("  ")[0]


def test_element_json_round_trip(capsys):
    _, gj, _ = run(capsys, "--n", "4", "--json", "nf", "1 2 3")
    _, hj, _ = run(capsys, "--json", "inv", gj)
    _, prod, _ = run(capsys, "--json", "mul", gj, hj)
    data = json.loads(prod)
    assert data["perm"] == [1, 2, 3, 4]
    assert all(c == 0 for c in data["vec"].values())


def test_mixed_json_and_word_input(capsys):
    _, gj, _ = run(capsys, "--n", "3", "--json", "nf", "2 -1")
    code, out, _ = run(capsys, "--n", "3", "--json", "mul", gj, "2 -1")
    assert code == 0
    assert json.loads(out)["perm"] == json.loads(run(capsys, "--n", "3", "--json", "nf", "2 -1 2 -1")[1])["perm"]


def test_pow(capsys):
    code, out, _ = run(capsys, "--n", "3", "--json", "pow", "2 -1", "3")
    assert code == 0
    assert json.loads(out)["perm"] == [1, 2, 3]


def test_pow_with_a_4000_digit_exponent_is_fast(capsys):
    # plain square and multiply on all 4001 digits took ~19 s (2-core VM);
    # reducing the exponent modulo the permutation order 64 bounds it.
    # (sigma_1 ... sigma_63)^64 is the full twist, 1 on every pair, and 64
    # divides 10^4000.
    word = " ".join(map(str, range(1, 64)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "--n", "64", "pow", word, str(10**4000))
    assert time.perf_counter() - start < 5
    c = 10**4000 // 64
    assert code == 0
    pairs = (f"{{{i},{j}}}:{c}" for i in range(1, 65) for j in range(i + 1, 65))
    assert out == "() | " + ", ".join(pairs)


def test_pow_past_the_bit_limit_is_refused_quickly():
    # every one of the 499500 pair coefficients of the power would carry
    # about 13300 bits (about 0.9 GB in all); refused before any product
    word = " ".join(map(str, range(1, 1000)))
    start = time.perf_counter()
    code, out, err = _call("--n", "1000", "pow", word, str(10**4000))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert len(err) == 1 and err[0].startswith("error: the power has 499500 nonzero coefficients"), err


def test_pow_of_a_finite_order_element_with_a_4000_digit_exponent_is_not_refused(capsys):
    # every orbit sum of a torsion element is 0, so its powers stay small:
    # g^m = g^(m mod 63) for the 63-cycle block element
    _, word, _ = run(capsys, "--n", "64", "delta", "--blocks", "63", "--emit-word")
    code, out, _ = run(capsys, "--n", "64", "pow", word, str(10**4000))
    assert code == 0
    assert out == run(capsys, "--n", "64", "pow", word, str(10**4000 % 63))[1]


def test_alpha_and_orbits(capsys):
    code, out, _ = run(capsys, "--n", "7", "--json", "alpha", "--k", "3")
    assert code == 0
    assert json.loads(out)["perm"][:3] == [3, 1, 2]
    code, out, _ = run(capsys, "--n", "7", "--json", "orbits", "--blocks", "3,3")
    assert code == 0
    table = json.loads(out)
    assert sum(len(o) for o in table) == 21
    # same table computed from the element itself
    _, word, _ = run(capsys, "--n", "7", "delta", "--blocks", "3,3", "--emit-word")
    code, out2, _ = run(capsys, "--n", "7", "--json", "orbits", word)
    assert json.loads(out2) == table


def test_orbits_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["--n", "5", "orbits"])
    assert info.value.code == 2


def test_conjugate_test_and_conjugator(capsys):
    code, out, _ = run(capsys, "--n", "5", "--json", "conjugate-test", "2 -1", "4 -3")
    assert code == 0
    data = json.loads(out)
    assert data["conjugate"] is True
    assert data["witness"] is not None
    code, out, _ = run(capsys, "--n", "5", "--json", "conjugator", "4 -3")
    assert code == 0
    data = json.loads(out)
    assert data["blocks"]
    code, out, _ = run(capsys, "--n", "5", "conjugate-test", "2 -1", "1 1")
    assert code == 0
    assert out.startswith("not conjugate")


def test_conjugator_json_is_pinned(capsys):
    # a (3,5)-block element conjugated by "8 -3 5 2 -7 1"; the conjugator is
    # the least one, so any change to the search order changes this literal
    word = "8 -3 5 2 -7 1 2 -1 7 6 -5 -4 -1 7 -2 -5 3 -8"
    code, out, _ = run(capsys, "--n", "9", "--json", "conjugator", word)
    assert code == 0
    assert out == (
        '{"conjugator": {"n": 9, "perm": [1, 2, 4, 3, 6, 5, 9, 7, 8], '
        '"vec": {"1,3": -1, "5,6": -1, "7,9": -1}}, "blocks": "3,5"}'
    )


def test_torsion_witness_command(capsys):
    code, out, _ = run(capsys, "--n", "5", "--json", "torsion-witness", "(1,2,3)")
    assert code == 0
    assert json.loads(out)["witness"] is not None
    code, out, _ = run(capsys, "--n", "5", "--json", "torsion-witness", "(1,2)")
    assert code == 0
    assert json.loads(out)["witness"] is None


def test_count_classes_command(capsys):
    code, out, _ = run(capsys, "--n", "7", "count-classes", "--k", "3")
    assert code == 0 and out == "2"
    code, out, _ = run(capsys, "--n", "10", "--json", "count-classes", "--k", "21")
    assert json.loads(out) == {"classes": 1}


def test_count_classes_is_fast_on_many_strands(capsys):
    # listing every block multiset took 2.2 s at n = 100 and grew about 4x
    # per 20 strands; the knapsack answers n = 1000 at once
    start = time.perf_counter()
    code, out, _ = run(capsys, "--n", "1000", "count-classes", "--k", "105")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "3041192075")
    code, out, err = run(capsys, "--n", "1000000", "count-classes", "--k", "105")
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    # a trial scan for the odd divisors of k up to min(n, k) ran past 10 s
    # at n = k = 10^12; past 2 * CLASS_COUNT_LIMIT the input is refused
    # first, and a power of two has no odd divisor to look for
    start = time.perf_counter()
    code, out, err = run(capsys, "--n", str(10**12), "count-classes", "--k", str(10**12))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "refusing" in err
    start = time.perf_counter()
    assert run(capsys, "--n", str(10**12), "count-classes", "--k", str(2**40)) == (0, "0", "")
    assert time.perf_counter() - start < 0.5
    # a 4001-digit k divided by every odd d <= 2 * 10^6 took 3.3 s; reduced
    # once per batch of primes, the scan runs on small remainders
    start = time.perf_counter()
    code, out, err = run(capsys, "--n", "2000000", "count-classes", "--k", str(10**4000 + 1))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "error: n=2000000 times 2 block lengths is past 1000000; refusing"


def test_holonomy_command(capsys):
    code, out, _ = run(capsys, "--n", "3", "--json", "holonomy", "(1,2)")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert data["det"] == -1


def test_bieberbach_command(capsys):
    code, out, _ = run(capsys, "--n", "4", "--json", "bieberbach", "(1,2,3,4)", "(1,3)")
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 8, "bieberbach": True}
    code, out, _ = run(capsys, "--n", "3", "--json", "bieberbach", "(1,2,3)")
    assert json.loads(out) == {
        "order": 3,
        "bieberbach": False,
        "witness": {"order": 3, "element": {"n": 3, "perm": [2, 3, 1], "vec": {"1,2": -1}}},
    }
    code, out, _ = run(capsys, "--n", "3", "bieberbach", "(1,2,3)")
    assert out == "holonomy order 3: has torsion\nwitness of order 3: (1,2,3) | {1,2}:-1"


def test_b3_catalog_command(capsys):
    # the whole payload, byte for byte
    code, out, _ = run(capsys, "--json", "b3-catalog")
    assert code == 0
    assert out == (
        '{"n": 3, "subgroups": ['
        '{"name": "trivial", "generators": [], "holonomy_order": 1, '
        '"relators_verified": true, "abelianization": [3], '
        '"holonomy_generators": [], "det_spectrum": [1], "bieberbach": true}, '
        '{"name": "three_cycle", "generators": ["(1,3,2)"], "holonomy_order": 3, '
        '"relators_verified": true, "abelianization": [1, 3], '
        '"holonomy_generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]], '
        '"det_spectrum": [1], "bieberbach": false}, '
        '{"name": "transposition", "generators": ["(1,2)"], "holonomy_order": 2, '
        '"relators_verified": true, "abelianization": [2], '
        '"holonomy_generators": [[[1, 0, 0], [0, 0, 1], [0, 1, 0]]], '
        '"det_spectrum": [-1, 1], "bieberbach": true}, '
        '{"name": "symmetric", "generators": ["(1,2)", "(2,3)"], "holonomy_order": 6, '
        '"relators_verified": true, "abelianization": [1], '
        '"holonomy_generators": [[[1, 0, 0], [0, 0, 1], [0, 1, 0]], '
        '[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], '
        '"det_spectrum": [-1, 1], "bieberbach": false}], '
        '"bieberbach_example": {"coset_rep": "A12 * s1^-1 s2", '
        '"lattice": "cubes of the pair generators", "torsion_free": true}, '
        '"torsion_example": {"coset_rep": "s1^-1 s2", '
        '"lattice": "squares of the pair generators", "torsion_free": false}}'
    )


def test_frobenius_verify_command(capsys):
    # the whole payload, byte for byte
    code, out, _ = run(capsys, "--json", "frobenius", "verify")
    assert code == 0
    assert out == (
        '{"x": {"n": 7, "perm": [2, 3, 1, 5, 6, 4, 7], "vec": {"1,3": -1, "4,6": -1}}, '
        '"v": {"n": 7, "perm": [3, 5, 4, 2, 6, 7, 1], "vec": {"1,4": -1, "1,6": 1, '
        '"1,7": -1, "2,7": -1, "3,4": -1, "3,5": 1, "3,7": -1, "4,7": -1, "5,7": -1}}, '
        '"certificate": [{"relation": "x^3", "left": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, '
        '7], "vec": {}}, "right": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, 7], "vec": {}}, '
        '"holds": true}, {"relation": "v^7", "left": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, '
        '7], "vec": {}}, "right": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, 7], "vec": {}}, '
        '"holds": true}, {"relation": "x v x^-1 = v^2", "left": {"n": 7, "perm": [4, 6, '
        '2, 5, 7, 1, 3], "vec": {"1,2": 1, "1,3": -1, "1,7": -1, "2,6": -1, "2,7": -1, '
        '"3,5": 1, "3,6": -1, "3,7": -1, "4,6": -1, "4,7": -1}}, "right": {"n": 7, '
        '"perm": [4, 6, 2, 5, 7, 1, 3], "vec": {"1,2": 1, "1,3": -1, "1,7": -1, '
        '"2,6": -1, "2,7": -1, "3,5": 1, "3,6": -1, "3,7": -1, "4,6": -1, "4,7": -1}}, '
        '"holds": true}], "subgroup_order": 21}'
    )


def test_frobenius_verify_command_with_an_offset(capsys):
    offset = json.dumps(braidcryst.family_member((1, -2, 0, 3, 0, 1)).to_json())
    code, out, _ = run(capsys, "--json", "frobenius", "verify", "--offset-json", offset)
    assert code == 0
    assert out == (
        '{"x": {"n": 7, "perm": [2, 3, 1, 5, 6, 4, 7], "vec": {"1,3": -1, "4,6": -1}}, '
        '"v": {"n": 7, "perm": [3, 5, 4, 2, 6, 7, 1], "vec": {"1,2": 5, "1,3": 1, '
        '"1,5": -2, "1,7": -5, "2,3": 1, "2,4": -6, "2,5": 2, "2,7": -4, "3,4": 3, '
        '"3,5": -3, "3,6": 2, "3,7": -6, "4,6": 3, "4,7": -2, "5,7": 3, "6,7": 3}}, '
        '"certificate": [{"relation": "x^3", "left": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, '
        '7], "vec": {}}, "right": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, 7], "vec": {}}, '
        '"holds": true}, {"relation": "v^7", "left": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, '
        '7], "vec": {}}, "right": {"n": 7, "perm": [1, 2, 3, 4, 5, 6, 7], "vec": {}}, '
        '"holds": true}, {"relation": "x v x^-1 = v^2", "left": {"n": 7, "perm": [4, 6, '
        '2, 5, 7, 1, 3], "vec": {"1,2": 2, "1,3": 4, "1,4": 2, "1,6": -6, "1,7": -4, '
        '"2,3": 1, "2,4": -4, "2,5": 2, "2,6": 3, "2,7": -6, "3,4": -2, "3,7": -5, '
        '"4,6": -1, "4,7": 3, "5,6": 3, "5,7": 3, "6,7": -1}}, "right": {"n": 7, '
        '"perm": [4, 6, 2, 5, 7, 1, 3], "vec": {"1,2": 2, "1,3": 4, "1,4": 2, "1,6": -6, '
        '"1,7": -4, "2,3": 1, "2,4": -4, "2,5": 2, "2,6": 3, "2,7": -6, "3,4": -2, '
        '"3,7": -5, "4,6": -1, "4,7": 3, "5,6": 3, "5,7": 3, "6,7": -1}}, '
        '"holds": true}], "subgroup_order": 21}'
    )


@pytest.mark.parametrize(
    "offset, message",
    [
        ("{}", "offset does not repair the relation: 0"),
        ('{"1,2": 1}', "offset does not repair the relation: {1,2}:1"),
        ('{"1,2": 99999999999999999999}',
         "offset does not repair the relation: {1,2}:99999999999999999999"),
        ("5", 'vector must be an object of "i,j": integer entries, got 5'),
        ("[]", 'vector must be an object of "i,j": integer entries, got []'),
        ('{"1,8": 1}', "bad pair (1,8) for n=7"),
        ('{"1,2": 1, "2,1": 1}', "bad pair (2,1) for n=7"),
        ('{"x": 1}', "bad pair key 'x': expected \"i,j\""),
        ('{"1,2": 1.5}', "coefficient of '1,2' must be an integer, got 1.5"),
        ('{"1,2": true}', "coefficient of '1,2' must be an integer, got True"),
        ("nope", "Expecting value: line 1 column 1 (char 0)"),
    ],
)
def test_frobenius_verify_error_lines(offset, message):
    assert _call("frobenius", "verify", "--offset-json", offset) == (1, "", [f"error: {message}"])


def test_frobenius_verify_rejects_an_offset_under_optimize():
    # the relation check is not an assert, so python -O keeps it
    done = run_capped("-O", "-m", "braidcryst.cli", "frobenius", "verify", "--offset-json", "{}")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: offset does not repair the relation: 0\n"


def test_frobenius_family_command(capsys):
    code, out, _ = run(capsys, "--json", "frobenius", "family")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6
    assert len(data["kernel"]) == 6


#: The kernel basis ``frobenius family`` printed when the family came from an
#: integer solve of the repair system; any basis of that lattice is right.
SOLVED_KERNEL = [
    {"1,3": 1, "1,5": -1, "2,6": -1, "2,7": 1, "3,4": -1, "4,5": 1},
    {"1,4": -1, "1,5": 1, "2,4": 1, "2,5": -1, "3,6": -1, "3,7": 1},
    {"1,2": -1, "1,3": -1, "1,4": 1, "1,7": 1, "2,3": -1, "4,7": 1},
    {"1,3": -1, "1,5": 1, "2,3": -1, "2,5": -1, "2,6": 1, "2,7": -1, "3,4": 1, "3,5": -1,
     "4,6": 1, "5,6": 1},
    {"1,2": 1, "1,6": -1, "2,4": -1, "3,4": 1, "3,5": -1, "5,7": 1},
    {"1,4": -1, "1,5": 1, "1,6": 1, "1,7": -1, "2,4": 1, "2,5": -1, "2,7": -1, "3,6": -1,
     "4,6": 1, "6,7": 1},
]


def test_frobenius_family_command_output(capsys):
    from braidcryst.zlinalg import row_lattice_hnf

    code, out, _ = run(capsys, "--json", "--seed", "3", "frobenius", "family", "--sample", "4")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6
    assert data["particular"] == {"1,6": 1, "2,7": -1, "3,5": 1, "5,7": -1}
    assert data["samples"] == [
        {"r": [-2, 1, 1, -2, -1, 1],
         "offset": {"1,2": -2, "1,3": -2, "1,4": 1, "1,5": 1, "1,6": -1, "1,7": 4, "2,3": -2,
                    "2,4": 1, "2,5": -1, "2,6": 1, "2,7": 1, "3,5": 1, "3,7": 3, "4,6": -2,
                    "4,7": 1, "5,6": 1, "5,7": -2, "6,7": -3}},
        {"r": [0, 2, 1, -3, 1, -3],
         "offset": {"1,3": 1, "1,4": -3, "1,5": 2, "1,6": 1, "2,4": 3, "2,5": -3, "2,6": 1,
                    "3,4": -1, "3,5": 1, "3,6": -1, "3,7": 3, "4,5": 1, "4,7": -2, "5,6": 2,
                    "5,7": -3, "6,7": -2}},
        {"r": [3, 0, -1, 1, -2, -2],
         "offset": {"1,2": 3, "1,3": 2, "1,4": -2, "1,6": -2, "2,3": 3, "2,4": -1, "2,5": 1,
                    "2,6": -1, "2,7": 1, "3,4": 1, "3,5": 1, "3,6": -1, "3,7": 2, "4,5": -1,
                    "4,6": -3, "4,7": -1, "5,6": -2, "5,7": 1, "6,7": -1}},
        {"r": [2, 0, 1, 3, 1, 0],
         "offset": {"1,2": 5, "1,6": 1, "1,7": -5, "2,3": 2, "2,4": -5, "2,5": 2, "2,6": 1,
                    "2,7": -6, "3,4": 5, "3,5": -2, "3,6": 1, "3,7": -5, "4,5": -2, "4,6": 3,
                    "4,7": -1, "5,6": -1, "5,7": 3, "6,7": 4}},
    ]

    def rows(vectors):
        return [list(braidcryst.PairVector.from_json(7, v).coeffs) for v in vectors]

    assert row_lattice_hnf(rows(data["kernel"])) == row_lattice_hnf(rows(SOLVED_KERNEL))
    # and the new bytes, with the kernel read off family_member
    assert out == (
        '{"rank": 6, "particular": {"1,6": 1, "2,7": -1, "3,5": 1, "5,7": -1}, '
        '"kernel": [{"2,3": 1, "2,5": 1, "3,5": 1, "4,5": -1, "4,6": -1, "5,6": -1}, '
        '{"1,2": -1, "1,3": -1, "1,5": 1, "1,7": 1, "2,4": 1, "3,5": 1, "3,6": -1, '
        '"3,7": 1, "4,5": -1, "4,6": -1, "4,7": 1, "5,6": -1}, {"1,2": 1, "1,7": -1, '
        '"2,4": -1, "2,6": 1, "2,7": -1, "3,4": 1, "3,5": -1, "3,6": 1, "3,7": -1, '
        '"4,6": 1, "4,7": -1, "5,6": 1}, {"1,2": 1, "1,7": -1, "2,4": -1, "2,7": -1, '
        '"3,4": 1, "3,5": -1, "3,7": -1, "4,6": 1, "5,7": 1, "6,7": 1}, {"1,6": 1, '
        '"1,7": -1, "2,7": -1, "3,7": -1, "4,6": 1, "6,7": 1}, {"1,2": -1, "1,3": -1, '
        '"1,4": 1, "1,7": 1, "2,5": 1, "3,5": 1, "4,5": -1, "4,6": -1, "4,7": 1, '
        '"5,6": -1}], "samples": [{"r": [-2, 1, 1, -2, -1, 1], "offset": {"1,2": -2, '
        '"1,3": -2, "1,4": 1, "1,5": 1, "1,6": -1, "1,7": 4, "2,3": -2, "2,4": 1, '
        '"2,5": -1, "2,6": 1, "2,7": 1, "3,5": 1, "3,7": 3, "4,6": -2, "4,7": 1, '
        '"5,6": 1, "5,7": -2, "6,7": -3}}, {"r": [0, 2, 1, -3, 1, -3], '
        '"offset": {"1,3": 1, "1,4": -3, "1,5": 2, "1,6": 1, "2,4": 3, "2,5": -3, '
        '"2,6": 1, "3,4": -1, "3,5": 1, "3,6": -1, "3,7": 3, "4,5": 1, "4,7": -2, '
        '"5,6": 2, "5,7": -3, "6,7": -2}}, {"r": [3, 0, -1, 1, -2, -2], '
        '"offset": {"1,2": 3, "1,3": 2, "1,4": -2, "1,6": -2, "2,3": 3, "2,4": -1, '
        '"2,5": 1, "2,6": -1, "2,7": 1, "3,4": 1, "3,5": 1, "3,6": -1, "3,7": 2, '
        '"4,5": -1, "4,6": -3, "4,7": -1, "5,6": -2, "5,7": 1, "6,7": -1}}, {"r": [2, 0, '
        '1, 3, 1, 0], "offset": {"1,2": 5, "1,6": 1, "1,7": -5, "2,3": 2, "2,4": -5, '
        '"2,5": 2, "2,6": 1, "2,7": -6, "3,4": 5, "3,5": -2, "3,6": 1, "3,7": -5, '
        '"4,5": -2, "4,6": 3, "4,7": -1, "5,6": -1, "5,7": 3, "6,7": 4}}]}'
    )


def test_frobenius_family_kernel_coordinates_are_the_r_parameters(capsys):
    # family_member(r) = family_member(0) + sum r_i kernel[i]
    _, out, _ = run(capsys, "--json", "frobenius", "family")
    kernel = [braidcryst.PairVector.from_json(7, v).coeffs for v in json.loads(out)["kernel"]]
    base = braidcryst.family_member((0,) * 6).coeffs
    rng = random.Random(61)
    for _ in range(50):
        r = tuple(rng.randint(-6, 6) for _ in range(6))
        expect = [b + sum(ri * k[q] for ri, k in zip(r, kernel)) for q, b in enumerate(base)]
        assert braidcryst.family_member(r).coeffs == tuple(expect)


def test_frobenius_family_sampling_is_seeded(capsys):
    a = run(capsys, "--json", "--seed", "5", "frobenius", "family", "--sample", "3")
    b = run(capsys, "--json", "--seed", "5", "frobenius", "family", "--sample", "3")
    assert a == b
    c = run(capsys, "--json", "--seed", "6", "frobenius", "family", "--sample", "3")
    assert json.loads(a[1])["samples"] != json.loads(c[1])["samples"]


def test_frobenius_family_sample_is_bounded():
    for value in ("0", "1000"):
        code, out, err = _call("--json", "frobenius", "family", "--sample", value)
        assert (code, err) == (0, [])
        assert len(json.loads(out).get("samples", [])) == int(value)
    for value in ("-1", "1001", "1000000", "x"):
        code, out, err = _call("frobenius", "family", "--sample", value)
        assert (code, out) == (2, ""), value
        assert [line for line in err if "error:" in line] == [
            f"braidcryst frobenius family: error: argument --sample: must be an integer in 0..1000, "
            f"got {value!r}"
        ]


def test_frobenius_conjugator_command(capsys):
    code, out, _ = run(
        capsys, "--json", "frobenius", "conjugator", "--r", "1,0,0,0,0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert "theta" in data and "offset" in data


def test_frobenius_conjugator_output(capsys):
    # the whole payload, byte for byte
    code, out, _ = run(capsys, "--json", "frobenius", "conjugator", "--r", "1,-2,0,3,0,1")
    assert code == 0
    assert out == (
        '{"offset": {"1,2": 5, "1,3": 1, "1,4": 1, "1,5": -2, "1,7": -4, "2,3": 1, '
        '"2,4": -6, "2,5": 2, "2,7": -4, "3,4": 4, "3,5": -3, "3,6": 2, "3,7": -5, '
        '"4,6": 3, "4,7": -1, "5,7": 3, "6,7": 3}, "theta": {"1,4": 1, "1,5": -1, '
        '"1,6": -5, "1,7": -4, "2,4": -5, "2,5": 1, "2,6": -1, "2,7": -4, "3,4": -1, '
        '"3,5": -5, "3,6": 1, "3,7": -4, "4,5": -1, "4,6": -1, "4,7": -1, "5,6": -1, '
        '"5,7": -1, "6,7": -1}}'
    )


def test_frobenius_conjugator_requires_r():
    with pytest.raises(SystemExit) as info:
        main(["frobenius", "conjugator"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["frobenius", "verify", "--sample", "3", "--r", "x"],
        ["frobenius", "verify", "--r", "1,0,0,0,0,0"],
        ["frobenius", "family", "--offset-json", "5"],
        ["frobenius", "family", "--r", "1,0,0,0,0,0"],
        ["frobenius", "conjugator", "--r", "1,0,0,0,0,0", "--sample", "3"],
        ["frobenius", "conjugator", "--r", "1,0,0,0,0,0", "--offset-json", "{}"],
    ],
)
def test_frobenius_subcommands_take_only_their_own_options(argv):
    code, out, err = _call(*argv)
    assert (code, out) == (2, "")
    assert len(err) == 1 and "error: unrecognized arguments: " in err[0], err


def test_frobenius_conjugator_takes_a_negative_first_parameter():
    code, out, err = _call("frobenius", "conjugator", "--r", "-1,0,0,0,0,0")
    assert (code, err) == (0, [])
    assert _call("frobenius", "conjugator", "--r=-1,0,0,0,0,0") == (0, out, [])
    for value in ("1,0,0,0,0", "1,0,0,0,0,x", "+1,0,0,0,0,0", "1,0,0,0,0,\u0660"):
        code, out, err = _call("frobenius", "conjugator", "--r", value)
        assert (code, out) == (2, "")
        assert err == [
            "braidcryst frobenius conjugator: error: argument --r: "
            f"expects six comma-separated integers, got {value!r}"
        ]


def test_count_classes_needs_positive_k():
    for value in ("0", "-3", "x", "\u0663"):
        code, out, err = _call("--n", "5", "count-classes", "--k", value)
        assert (code, out) == (2, "")
        assert err == [
            f"braidcryst count-classes: error: argument --k: must be an integer >= 1, got {value!r}"
        ]
    assert _call("--n", "5", "count-classes", "--k", "1")[:2] == (0, "1\n")


#: Text that ``int`` or a regex ``\d`` would read as integers.
LOOSE_INTEGERS = [
    ["--n", "3", "nf", "1_0"],
    ["--n", "3", "nf", "+1 \u0662"],
    ["--n", "\u0663", "nf", "1"],
    ["--n", "1_0", "nf", "1"],
    ["--n", " 3", "nf", "1"],
    ["--n", "7", "delta", "--blocks", " 3 , +3 "],
    ["--n", "5", "torsion-witness", "(1,\u0662,3)"],
    ["order", '{"n":3,"perm":[1,2,3],"vec":{"\u0661,\u0662":1}}'],
    ["--n", "3", "pow", "1", "\u0663"],
    ["--n", "7", "alpha", "--k", "+3"],
    ["--seed", "1_0", "frobenius", "family"],
]


@pytest.mark.parametrize("argv", LOOSE_INTEGERS)
def test_integers_are_ascii_digits(argv):
    code, out, err = _call(*argv)
    assert code in (1, 2) and out == ""
    assert len(err) == 1 and "error: " in err[0], err


def test_integers_past_the_digit_limit_give_one_error_line():
    digits = "1" + "0" * 4400
    line = "error: an integer is past the 4300-digit limit on reading and printing integers"
    # reading one from element JSON
    element = '{"n":3,"perm":[1,2,3],"vec":{"1,2":%s}}' % digits
    assert _call("--n", "3", "order", element) == (1, "", [line])
    # printing one: the vector of sigma_1^20 is 10 at {1,2}, so 5 * 10^4299
    # copies of it reach 4301 digits
    word = " ".join(["1"] * 20)
    for flag in ([], ["--json"]):
        assert _call(*flag, "--n", "3", "pow", word, "5" + "0" * 4299) == (1, "", [line])
    # reading one as an option value
    code, out, err = _call("--n", digits, "nf", "1")
    assert (code, out) == (2, "")
    assert err == [f"braidcryst: error: argument --n: {line.removeprefix('error: ')}"]


def test_abelian_realization_command(capsys):
    code, out, _ = run(
        capsys, "--n", "8", "--json", "abelian-realization", "--blocks", "3,5"
    )
    assert code == 0
    data = json.loads(out)
    assert [g["order"] for g in data["generators"]] == [3, 5]


def test_domain_error_exit_code(capsys):
    # letter out of range for n
    code, out, err = run(capsys, "--n", "3", "nf", "5")
    assert code == 1
    assert "error" in err
    # offset off the family surface
    code, _, err = run(
        capsys, "--json", "frobenius", "verify", "--offset-json", "{}"
    )
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    # word input without --n
    with pytest.raises(SystemExit) as info:
        main(["nf", "1 2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_conflicting_n_is_a_domain_error(capsys):
    _, gj, _ = run(capsys, "--n", "4", "--json", "nf", "1")
    code, _, err = run(capsys, "--n", "5", "nf", gj)
    assert code == 1
    assert "conflicts" in err


def _call(*argv):
    """``main`` with captured streams; returns (exit code, stdout, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue().splitlines()


MALFORMED_ELEMENTS = [
    '{"n":3,"perm":5}',
    '{"n":3,"perm":[1,2,3],"vec":[1]}',
    '{"n":3,"perm":[1,2,3],"vec":{"1,2":1.7}}',
    '{"n":3,"perm":[1,2,3],"vec":{"1,2":true}}',
    '{"n":3,"perm":[1,2,3],"vec":null}',
    '{"n":3,"perm":[1,2,3],"vec":{"1-2":1}}',
    '{"n":3,"perm":[1,2,3],"vec":{"2,1":1}}',
    '{"n":3,"perm":[1,2,3],"vec":{"1,4":1}}',
    '{"n":3,"perm":[1,2,3],"vec":{"1,2":1,"01,2":0}}',
    '{"n":true,"perm":[1]}',
    '{"n":3.0,"perm":[1,2,3]}',
    '{"n":"3","perm":[1,2,3]}',
    '{"n":3,"perm":[1,2,3.0]}',
    '{"n":3,"perm":[1,2,true]}',
    '{"n":3,"perm":[1,2,2]}',
    '{"n":3,"perm":[1,2]}',
    '{"n":1,"perm":[1]}',
    '{"perm":[1,2]}',
    '{"n":3}',
    '{"n":3,"perm":[1,2,3],"vecc":{"1,2":1}}',
    '{"n": 3',
]


def test_malformed_element_json_gives_one_error_line():
    for text in MALFORMED_ELEMENTS:
        code, out, err = _call("order", text)
        assert (code, out) == (1, ""), text
        assert len(err) == 1 and err[0].startswith("error: "), (text, err)
    for text in MALFORMED_ELEMENTS[:-1]:  # the last one is not JSON at all
        with pytest.raises(ValueError):
            QuotientElement.from_json(json.loads(text))


def test_misspelt_element_key_is_named_not_read_as_zero():
    assert _call("nf", '{"n":3,"perm":[1,2,3],"vecc":{"1,2":1}}') == (
        1, "", ["error: unknown element key 'vecc': expected n, perm and vec"]
    )


def test_deeply_nested_element_gives_one_error_line():
    text = '{"a":' * 3000 + "1" + "}" * 3000
    assert _call("order", text) == (1, "", ["error: JSON input is nested too deeply"])


def test_element_json_keeps_exact_large_entries():
    code, out, _ = _call("--json", "mul", '{"n":3,"perm":[1,2,3],"vec":{"1,2":100000000000000000000}}',
                         '{"n":3,"perm":[1,2,3],"vec":{"1,2":-99999999999999999999}}')
    assert code == 0 and json.loads(out)["vec"] == {"1,2": 1}


def test_strand_count_below_two_is_a_usage_error():
    for value in ("0", "1", "-3", "x", "2.5"):
        code, out, err = _call("--n", value, "holonomy", "()")
        assert (code, out) == (2, ""), value
        assert [line for line in err if "error:" in line] == [
            f"braidcryst: error: argument --n: must be an integer >= 2, got {value!r}"
        ]
    assert _call("--n", "2", "holonomy", "()")[0] == 0


@pytest.mark.parametrize(
    "argv, line",
    [
        (["frobnicate"], "braidcryst: error: argument command: invalid choice: 'frobnicate' "),
        (["--n", "3", "mul", "1"], "braidcryst mul: error: the following arguments are required: right"),
        (["--n", "x", "nf", "1"], "braidcryst: error: argument --n: must be an integer >= 2, got 'x'"),
        (["frobenius", "conjugator"],
         "braidcryst frobenius conjugator: error: the following arguments are required: --r"),
        (["--n", "3", "nf", "1", "a\nb"], "braidcryst: error: unrecognized arguments: a b"),
        (["--json", "count-classes", "--k", "3"], "braidcryst: error: --n is required for this command"),
        (["--n", "3", "orbits", "1 2", "--blocks", "3"],
         "braidcryst: error: orbits needs an element or --blocks, not both"),
        (["--n", "3", "orbits"], "braidcryst: error: orbits needs an element or --blocks"),
    ],
    ids=["invalid-verb", "missing-positional", "bad-n", "conjugator-without-r", "newline",
         "count-classes-without-n", "orbits-with-element-and-blocks", "orbits-with-neither"],
)
def test_usage_error_is_one_line(argv, line):
    code, out, err = _call(*argv)
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith(line), err


def test_orbits_with_neither_input_does_not_say_both():
    assert _call("--n", "3", "orbits")[2] == ["braidcryst: error: orbits needs an element or --blocks"]


def test_help_is_not_an_error():
    code, out, err = _call("frobenius", "-h")
    assert (code, err) == (0, [])
    assert out.startswith("usage: braidcryst frobenius [-h] {verify,family,conjugator} ...")
    assert "\npositional arguments:\n" in out


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _valid_element(n):
    keys = [f"{i},{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return st.fixed_dictionaries({
        "n": st.just(n),
        "perm": st.permutations(range(1, n + 1)),
        "vec": st.dictionaries(st.sampled_from(keys), st.integers(), max_size=4),
    })


_element_json = (
    st.integers(min_value=2, max_value=6).flatmap(_valid_element)
    | st.fixed_dictionaries({}, optional={
        "n": st.integers(min_value=-1, max_value=6) | _json_values,
        "perm": st.lists(st.integers(min_value=0, max_value=6), max_size=6) | _json_values,
        "vec": st.dictionaries(st.text(alphabet="0123456, ", max_size=4),
                               st.integers() | _json_values, max_size=3) | _json_values,
    })
    | _json_values
)


@settings(max_examples=100, deadline=None)
@given(_element_json)
def test_order_verb_on_any_element_json(data):
    # exit 0 with a JSON answer, or exit 1/2 with exactly one error line;
    # never a traceback (an exception escaping main fails the test)
    code, out, err = _call("--json", "order", json.dumps(data))
    if code == 0:
        assert err == []
        assert set(json.loads(out)) == {"order"}
    else:
        assert code in (1, 2) and out == ""
        assert len([line for line in err if "error:" in line]) == 1
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: ")


#: Positional count and options of each verb; the fuzz test mostly gives a
#: verb that many positionals, so that it gets past the parser.
SHAPES = {
    "nf": (1, ()), "mul": (2, ()), "inv": (1, ()), "pow": (2, ()), "order": (1, ()),
    "delta": (0, ("--blocks", "--emit-word")), "alpha": (0, ("--r", "--k")),
    "orbits": (1, ("--blocks",)), "conjugate-test": (2, ()), "conjugator": (1, ()),
    "torsion-witness": (1, ()), "count-classes": (0, ("--k",)), "holonomy": (1, ()),
    "bieberbach": (2, ()), "b3-catalog": (0, ()), "frobenius": (1, ()),
    "abelian-realization": (0, ("--blocks",)),
}

#: Options of each frobenius subcommand, the positional of ``frobenius``.
FROBENIUS_SHAPES = {
    "verify": ("--offset-json",), "family": ("--sample",), "conjugator": ("--r",),
}


def test_fuzz_shapes_cover_every_verb():
    _, _, err = _call("frobnicate")
    assert err[0].endswith(f"(choose from {', '.join(map(repr, SHAPES))})")
    _, _, err = _call("frobenius", "frobnicate")
    assert err[0].endswith(f"(choose from {', '.join(map(repr, FROBENIUS_SHAPES))})")


def _argument(n):
    """Braid words, cycle text, element JSON (some nested deeply), block
    lists, integers, the frobenius subcommands and junk."""
    return (
        st.lists(st.integers(-n, n), max_size=6).map(lambda w: " ".join(map(str, w)))
        | st.lists(
            st.lists(st.integers(0, 10), max_size=4).map(lambda c: "(" + ",".join(map(str, c)) + ")"),
            max_size=3,
        ).map("".join)
        | _valid_element(n).map(json.dumps)
        | _element_json.map(json.dumps)
        | st.sampled_from([3, 3000]).map(lambda d: '{"n": ' + "[" * d + "]" * d + "}")
        | st.lists(st.integers(-1, 9), max_size=3).map(lambda b: ",".join(map(str, b)))
        | st.integers(-3, 12).map(str)
        | st.sampled_from(["verify", "family", "conjugator", "1,0,0,0,0,0", "-1,0,0,0,0,0",
                           "--json", "--k", "-h"])
        | st.text(max_size=8)
        | st.integers(-10**6, 10**6).map(str)
    )


@st.composite
def _argv(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    verb = draw(st.sampled_from(tuple(SHAPES)))
    arity, options = SHAPES[verb]
    argument = _argument(n)
    argv = ["--n", str(n)]
    argv += draw(st.sampled_from([[], ["--json"]]))
    count = max(arity + draw(st.sampled_from([0, 0, 0, 0, 1, -1])), 0)
    argv += [verb, *(draw(argument) for _ in range(count))]
    if verb == "frobenius" and count:
        # mostly a real subcommand, with its own options or another one's
        at = len(argv) - count
        step = argv[at] = draw(st.sampled_from([*FROBENIUS_SHAPES, argv[at]]))
        options = FROBENIUS_SHAPES.get(step, ())
        if draw(st.sampled_from([False, False, False, True])):
            options = draw(st.sampled_from(tuple(FROBENIUS_SHAPES.values())))
    for option in options:
        if draw(st.sampled_from([True, True, True, False])):
            argv += [option] if option == "--emit-word" else [option, draw(argument)]
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_any_argv_exits_cleanly(capsys, argv):
    # exit 0, 1 or 2; never a traceback (an exception escaping main fails the
    # test); an error is exactly one line on stderr
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
    if code:
        assert len(err.splitlines()) == 1, (argv, err)


def child_env(**extra):
    """The environment with ``extra`` set and this checkout of braidcryst
    first on ``PYTHONPATH``."""
    src = str(Path(braidcryst.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_capped(*args):
    """Run a fresh interpreter on this checkout of braidcryst, limited to
    600 MB of address space."""
    limit = 600 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        env=child_env(), preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )


def test_closed_pipe_ends_quietly():
    # like ``| head -1``: the reader takes one line of the 1.2 MB matrix and
    # closes the pipe while the command is still writing
    with subprocess.Popen(
        [sys.executable, "-m", "braidcryst.cli", "--n", "40", "holonomy", "(1,2,3)"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "30000", "nf", ""],
        ["--n", "30000", "torsion-witness", "(1,2,3)"],
    ],
    ids=["nf", "torsion-witness"],
)
def test_out_of_memory_gives_one_error_line(argv):
    # each command sizes its work by --n and, in a child limited to 600 MB of
    # address space, runs out of memory long before finishing
    done = run_capped("-m", "braidcryst.cli", *argv)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: out of memory; try a smaller --n"]


@pytest.mark.parametrize("n", [3000, 92], ids=["holonomy", "holonomy-least-refused"])
def test_size_guard_gives_one_error_line(n):
    # the dense holonomy matrix has (n(n-1)/2)^2 entries; past the fixed
    # entry count the command refuses at once instead of filling memory
    size = n * (n - 1) // 2
    done = run_capped("-m", "braidcryst.cli", "--n", str(n), "holonomy", "()")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: the holonomy matrix at n={n} has {size * size} entries, "
        "more than 16777216; refusing to build it"
    ]


def test_bieberbach_decides_large_symmetric_groups(capsys, monkeypatch):
    # one stabilizer chain gives the order, the verdict and the certificate
    chains = []
    build = StabilizerChain.__init__
    monkeypatch.setattr(StabilizerChain, "__init__", lambda self, *args: chains.append(args) or build(self, *args))
    for n, seconds in ((11, 1.0), (16, 2.0)):
        full_cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
        chains.clear()
        start = time.perf_counter()
        code, out, _ = run(capsys, "--n", str(n), "bieberbach", full_cycle, "(1,2)")
        elapsed = time.perf_counter() - start
        assert code == 0 and len(chains) == 1
        assert out.splitlines()[0] == f"holonomy order {math.factorial(n)}: has torsion"
        assert elapsed < seconds
    assert math.factorial(11) == 39916800


@pytest.mark.parametrize(
    "n, generators",
    [
        (3, ["(1,2,3)"]),
        (3, ["(1,2)", "(2,3)"]),
        (6, ["(1,2,3)(4,5)", "(1,4)"]),
        (9, ["(1,2,3,4,5,6,7,8,9)", "(1,2)"]),
        (8, ["(1,2,3,4,5,6,7)", "(1,2,4)(3,6,5)"]),
    ],
    ids=["C3", "S3", "order-72", "S9", "F21"],
)
def test_bieberbach_witness_is_a_checked_odd_prime_order_element(capsys, n, generators):
    argv = ["--n", str(n), "--json", "bieberbach", *generators]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["bieberbach"] is False
    q = data["witness"]["order"]
    assert q >= 3 and all(q % d for d in range(2, q))
    g = QuotientElement.from_json(data["witness"]["element"])
    assert g.perm.order() == q
    H = HolonomySubgroup.from_cycle_texts(n, generators)
    assert g.perm in StabilizerChain(n, H.generators)
    # the element is pasted back into the order verb
    code, order_out, _ = run(capsys, "--json", "order", json.dumps(data["witness"]["element"]))
    assert code == 0 and json.loads(order_out) == {"order": q}
    # the same witness on every run, whatever the hash seed
    child = subprocess.run(
        [sys.executable, "-m", "braidcryst.cli", *argv],
        env=child_env(PYTHONHASHSEED="123"), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0 and json.loads(child.stdout) == data


def test_bieberbach_chain_guard_gives_one_error_line():
    # without a limit, Schreier-Sims on S_1000 ran past 120 s; the fixed
    # work limit refuses it within seconds, inside the 600 MB cap
    full_cycle = "(" + ",".join(map(str, range(1, 1001))) + ")"
    start = time.perf_counter()
    done = run_capped("-m", "braidcryst.cli", "--n", "1000", "bieberbach", full_cycle, "(1,2)")
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        "error: the stabilizer chain at n=1000 needs more than 10000000 steps of work; "
        "refusing to finish it"
    ]


COLD_START = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("braidcryst."))

import braidcryst
print(loaded())
from braidcryst import cli
cli.main(["--n", "3", "--json", "nf", "1 2"])
print(loaded(), "dataclasses" in sys.modules, "inspect" in sys.modules)
# a loaded module's public names are all bound, used or not
print(sorted({"Permutation", "pairs", "mul", "torsion_witness"} & set(vars(braidcryst))))
# a Bieberbach answer needs neither torsion nor zlinalg
cli.main(["--n", "4", "bieberbach", "(1,2)", "(3,4)"])
print(loaded())
# the Frobenius certificate needs neither conjugacy, torsion nor zlinalg
cli.main(["frobenius", "verify"])
print(loaded())
print(braidcryst.conjugacy.__name__, "braidcryst.conjugacy" in loaded())
"""


def test_cold_start_loads_only_what_the_verb_runs():
    done = run_capped("-c", COLD_START)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        '{"n": 3, "perm": [3, 1, 2], "vec": {}}',
        "['braidcryst.braidword', 'braidcryst.cli', 'braidcryst.permutation', "
        "'braidcryst.quotient'] False False",
        "['Permutation', 'mul', 'pairs']",
        "holonomy order 4: Bieberbach",
        "['braidcryst.braidword', 'braidcryst.cli', 'braidcryst.permutation', "
        "'braidcryst.quotient', 'braidcryst.subgroups']",
        "x^3: ok",
        "v^7: ok",
        "x v x^-1 = v^2: ok",
        "subgroup order: 21",
        "['braidcryst.braidword', 'braidcryst.cli', 'braidcryst.frobenius', "
        "'braidcryst.permutation', 'braidcryst.quotient', 'braidcryst.subgroups']",
        "braidcryst.conjugacy True",
    ]


def test_package_names_are_the_submodules_objects():
    for module, names in braidcryst.EXPORTS.items():
        home = importlib.import_module(f"braidcryst.{module}")
        for name in names:
            assert getattr(braidcryst, name) is getattr(home, name), name
    assert sorted(braidcryst.__all__) == sorted(n for names in braidcryst.EXPORTS.values() for n in names)
    namespace = {}
    exec("from braidcryst import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(braidcryst.__all__)
    assert {*braidcryst.__all__, *braidcryst.EXPORTS, "cli"} <= set(dir(braidcryst))
    with pytest.raises(AttributeError):
        braidcryst.no_such_name


def test_main_is_the_one_print_site():
    # handlers return (payload, text); only main writes to stdout or stderr
    tree = ast.parse(Path(braidcryst.cli.__file__).read_text())
    (main_def,) = [node for node in tree.body if getattr(node, "name", None) == "main"]
    inside = {id(node) for node in ast.walk(main_def)}
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert prints and [node.lineno for node in prints if id(node) not in inside] == []


HELP_TEXT = Path(__file__).with_name("cli_help.txt")


def test_help_text_is_pinned(monkeypatch):
    # the whole command-line interface, as ``-h`` prints it at 80 columns
    # for the top level, every verb and every frobenius subcommand;
    # argparse's layout can differ between Python versions
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for prefix in [[], *([verb] for verb in SHAPES), *(["frobenius", step] for step in FROBENIUS_SHAPES)]:
        code, out, err = _call(*prefix, "-h")
        assert (code, err) == (0, []), prefix
        blocks.append(f"$ braidcryst {' '.join([*prefix, '-h'])}\n{out}")
    assert "\n".join(blocks) == HELP_TEXT.read_text()
