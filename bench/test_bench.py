"""Self-tests of the benchmark.

Run with ``python3 -m pytest bench/test_bench.py`` or ``python3 bench/test_bench.py``
from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

bc = run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _digests(workload, seed, cycles=2):
    stream = workloads.WORKLOADS[workload](seed)
    return [op.digest() for _ in range(cycles) for op in next(stream)]


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        assert _digests(name, 5) == _digests(name, 5), name
        assert _digests(name, 5) != _digests(name, 6), name


def _failures(seconds):
    stream = workloads.group_law_cycles(3)
    records, _ = run.timed_loop(bc, [], stream, seconds)
    return sum(1 for op, result, *_ in records if not run.check(op, result)), len(records)


def _replace_everywhere(original, replacement):
    """Swap a function in every braidcryst namespace; return an undo list."""
    undo = []
    for key, module in list(sys.modules.items()):
        if key == "braidcryst" or key.startswith("braidcryst."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr))
                    setattr(module, attr, replacement)
    return undo


def test_planted_wrong_answer_is_counted_as_failure():
    failed, attempted = _failures(0.2)
    assert attempted > 0 and failed == 0

    good_mul = bc.quotient.mul

    def bad_mul(g, h, *args):
        r = good_mul(g, h, *args)
        coeffs = list(r.vec.coeffs)
        coeffs[-1] += 1
        return bc.QuotientElement(r.perm, bc.PairVector(r.n, tuple(coeffs)))

    undo = _replace_everywhere(good_mul, bad_mul)
    try:
        failed, attempted = _failures(0.2)
    finally:
        for module, attr in undo:
            setattr(module, attr, good_mul)
    assert failed / attempted > 0


def test_tracer_sees_cross_module_calls_and_restores():
    original_mul = bc.quotient.mul
    original_elements = bc.HolonomySubgroup.__dict__["elements"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # torsion imports power and mul by name; power calls mul inside quotient
        bc.torsion_witness(bc.Permutation.from_text(5, "(1,2,3)"))
        H = bc.HolonomySubgroup.from_cycle_texts(4, ["(1,2)", "(3,4)"])
        bc.is_bieberbach(H)
    finally:
        tracer.uninstall()
    # once directly, then once per non-identity element inside is_bieberbach
    assert tracer.calls["torsion.torsion_witness"] == 1 + 3
    assert tracer.calls["quotient.power"] >= 2
    assert tracer.calls["quotient.mul"] > 0
    assert tracer.calls["permutation.Permutation.mul"] > 0
    assert tracer.calls["subgroups.HolonomySubgroup.elements"] == 1
    assert tracer.extra["subgroups.is_bieberbach.elements_listed"] == 4
    assert bc.quotient.mul is original_mul and bc.torsion.mul is original_mul
    assert bc.HolonomySubgroup.__dict__["elements"] is original_elements
    assert sum(tracer.self_s.values()) > 0


def test_entry_digits_beyond_the_str_limit():
    big = 10 ** 5000  # str() of this raises ValueError on Python >= 3.11
    assert tracing.max_digits([[1, -big]], [[7]]) == 5001
    assert tracing.max_digits([[0]]) == 1


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
