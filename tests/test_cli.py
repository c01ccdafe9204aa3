"""The braidcryst command line front end."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from braidcryst.cli import main
from braidcryst.quotient import QuotientElement


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


def test_order_infinite(capsys):
    code, out, _ = run(capsys, "--n", "3", "order", "1")
    assert code == 0
    assert out == "infinite"
    code, out, _ = run(capsys, "--n", "3", "--json", "order", "1")
    assert json.loads(out) == {"order": None}


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
    assert json.loads(out) == {"order": 3, "bieberbach": False}


def test_b3_catalog_command(capsys):
    code, out, _ = run(capsys, "--json", "b3-catalog")
    assert code == 0
    report = json.loads(out)
    assert [s["name"] for s in report["subgroups"]] == [
        "trivial",
        "three_cycle",
        "transposition",
        "symmetric",
    ]
    assert report["bieberbach_example"]["torsion_free"] is True
    assert report["torsion_example"]["torsion_free"] is False


def test_frobenius_verify_command(capsys):
    code, out, _ = run(capsys, "--json", "frobenius", "verify")
    assert code == 0
    data = json.loads(out)
    assert data["subgroup_order"] == 21
    assert all(rec["holds"] for rec in data["certificate"])


def test_frobenius_family_command(capsys):
    code, out, _ = run(capsys, "--json", "frobenius", "family")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6
    assert len(data["kernel"]) == 6


def test_frobenius_family_sampling_is_seeded(capsys):
    a = run(capsys, "--json", "--seed", "5", "frobenius", "family", "--sample", "3")
    b = run(capsys, "--json", "--seed", "5", "frobenius", "family", "--sample", "3")
    assert a == b
    c = run(capsys, "--json", "--seed", "6", "frobenius", "family", "--sample", "3")
    assert json.loads(a[1])["samples"] != json.loads(c[1])["samples"]


def test_frobenius_conjugator_command(capsys):
    code, out, _ = run(
        capsys, "--json", "frobenius", "conjugator", "--r", "1,0,0,0,0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert "theta" in data and "offset" in data


def test_frobenius_conjugator_requires_r():
    with pytest.raises(SystemExit) as info:
        main(["frobenius", "conjugator"])
    assert info.value.code == 2


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
    code, out, err = _call("--json", "--element-json", "order", json.dumps(data))
    if code == 0:
        assert err == []
        assert set(json.loads(out)) == {"order"}
    else:
        assert code in (1, 2) and out == ""
        assert len([line for line in err if "error:" in line]) == 1
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: ")
