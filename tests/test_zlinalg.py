"""Integer linear algebra: HNF, lattices, Smith invariants (abelianization)."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_decomp, smith_normal_form

import braidcryst
from braidcryst import zlinalg
from braidcryst.braidword import VerificationError
from braidcryst.zlinalg import (
    abelianization,
    as_int_matrix,
    format_matrix,
    hnf,
    lattice_contains,
    row_lattice_hnf,
    solve_integer,
)


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def exact_det(M):
    """Fraction Gaussian elimination; exact for the small matrices used here."""
    A = [[Fraction(int(x)) for x in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return int(det)


def minors_gcd(M, k):
    rows, cols = len(M), len(M[0])
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            g = math.gcd(g, abs(exact_det([[M[r][c] for c in ci] for r in ri])))
    return g


def is_hnf(H):
    prev = -1
    for row in H:
        nz = [c for c, x in enumerate(row) if x != 0]
        if not nz:
            continue
        piv = nz[0]
        if piv <= prev or row[piv] <= 0:
            return False
        prev = piv
    return True


def random_matrix(rng, rows, cols, bound=4):
    return as_int_matrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_hnf_properties():
    rng = random.Random(0)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        H, U = hnf(M)
        assert abs(exact_det(U)) == 1
        assert matmul(U, M) == H
        assert is_hnf(H)


def test_hnf_transform_stays_small_on_dense_input():
    # an elimination without size control reaches U entries of hundreds to
    # thousands of digits at this size
    rng = random.Random(11)
    for _ in range(4):
        M = random_matrix(rng, 20, 18, bound=5)
        H, U = hnf(M)
        assert matmul(U, M) == H
        assert abs(exact_det(U)) == 1
        assert is_hnf(H)
        assert max(abs(a) for row in U for a in row) < 10**200


def test_snf_matches_determinantal_divisors():
    # the Smith invariants abelianization reports are the quotients of the
    # gcds of the k x k minors
    rng = random.Random(1)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=5)
        diag, prev = [], 1
        for k in range(1, min(len(M), len(M[0])) + 1):
            dk = minors_gcd(M, k)
            if dk == 0:
                break
            diag.append(dk // prev)
            prev = dk
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert abelianization(M, len(M[0])) == (len(M[0]) - len(diag), [d for d in diag if d > 1])


def test_solve_integer_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = random_matrix(rng, rows, cols)
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = matvec(M, x)
        out = solve_integer(M, b)
        assert out is not None
        x0, ker = out
        assert matvec(M, x0) == b
        for v in ker:
            assert matvec(M, v) == [0] * rows
        # the found solution differs from x by a kernel vector
        assert lattice_contains(ker or [[0] * cols], [a - c for a, c in zip(x, x0)])


def test_snf_needs_a_column_step_to_fix_divisibility():
    # diagonal after one round, but 2 does not divide 3; a row step here
    # would be undone by the next row elimination
    assert abelianization([[3, -3, -3], [-3, 2, 0]], 3) == (1, [3])


def test_degenerate_shapes():
    # results at shapes with no rows or no columns, as given by the Smith
    # pivot loop this replaced
    for k in range(4):
        M = [[] for _ in range(k)]  # k x 0 ([] is 0 x 0)
        assert solve_integer(M, [0] * k) == ([], [])
        if k:
            assert solve_integer(M, [1] + [0] * (k - 1)) is None
        assert abelianization(M, 0) == (0, [])
        assert abelianization([], k) == (k, [])  # 0 x k
    assert solve_integer([[0, 0, 0]], [0]) == ([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_integer([[0], [0]], [0, 0]) == ([0], [[1]])
    with pytest.raises(ValueError, match="^right-hand side length does not match$"):
        solve_integer([[1, 2]], [1, 2])
    assert abelianization([[0, 0, 0]], 3) == (3, [])
    assert abelianization([[0], [0]], 1) == (1, [])


def test_solve_integer_matches_sympy_smith_decomposition():
    # sympy's P @ M @ Q = S is the oracle: M x = b is solvable exactly when
    # c = P b has c[i] divisible by S[i][i] below the rank and zero above it,
    # and the kernel has rank cols - rank
    rng = random.Random(14)
    shapes = [(0, 0), (1, 0), (3, 0)] + [(r, c) for r in range(1, 6) for c in range(1, 6)]
    for trial in range(240):
        rows, cols = shapes[trial % len(shapes)]
        M = random_matrix(rng, rows, cols, bound=rng.choice([1, 3, 6]))
        if rows > 1 and trial % 3 == 1:  # rank one
            M = [[rng.randint(-2, 2) * a for a in M[0]] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = matvec(M, x) if trial % 2 else [rng.randint(-4, 4) for _ in range(rows)]
        S, P, _ = smith_normal_decomp(Matrix(rows, cols, [a for row in M for a in row]), domain=ZZ)
        diag = [int(S[i, i]) for i in range(min(rows, cols))]
        rank = sum(1 for d in diag if d)
        c = [int(a) for a in P * Matrix(rows, 1, b)]
        solvable = all(c[i] % diag[i] == 0 for i in range(rank)) and not any(c[rank:])
        out = solve_integer(M, b)
        assert (out is not None) == solvable, (M, b)
        if out is not None:
            x0, kernel = out
            assert matvec(M, x0) == b and len(kernel) == cols - rank
            assert all(not any(matvec(M, k)) for k in kernel)


def test_solve_integer_check_raises_when_planted_false(monkeypatch):
    transform = zlinalg.hnf
    with monkeypatch.context() as patch:
        # wrong quotients: the particular solution misses b
        patch.setattr(zlinalg, "_reduce", lambda basis, v: [1] * len(basis))
        with pytest.raises(VerificationError):
            solve_integer([[2, 4]], [6])

    def bent_kernel(M):
        H, U = transform(M)
        U[-1][0] += 1
        return H, U

    with monkeypatch.context() as patch:
        patch.setattr(zlinalg, "hnf", bent_kernel)
        with pytest.raises(VerificationError):
            solve_integer([[2, 4]], [6])


def test_solve_integer_unsolvable():
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[2, 4], [1, 2]], [2, 0]) is None
    # solvable over Q but not over Z
    assert solve_integer([[2, 0], [0, 2]], [1, 0]) is None


def test_lattice_membership():
    rows = [[2, 0], [0, 3]]
    assert lattice_contains(rows, [4, 3])
    assert lattice_contains(rows, [0, 0])
    assert not lattice_contains(rows, [1, 0])
    assert row_lattice_hnf([[1, 0], [0, 1]]) == row_lattice_hnf([[1, 1], [0, 1]])
    assert row_lattice_hnf([[2, 0], [0, 2]]) != row_lattice_hnf([[1, 0], [0, 1]])
    assert row_lattice_hnf([[2, 1], [0, 1]]) == row_lattice_hnf([[0, 1], [2, 0]])


def test_row_lattice_and_membership_agree_with_hnf_and_solve():
    # row_lattice_hnf skips the transform; hnf is its reference.  lattice
    # membership and an integer solve of the transposed system share the
    # reduction by the HNF, so sympy is the oracle for the solve (below)
    rng = random.Random(12)
    shapes = [(7, 3), (3, 7), (5, 5), (0, 4), (4, 1), (1, 4)]
    for trial in range(60):
        rows, cols = shapes[trial % len(shapes)]
        M = random_matrix(rng, rows, cols)
        if trial // len(shapes) % 2 and rows > 1:  # rank deficient
            M = [[rng.randint(-2, 2) * a + rng.randint(-1, 1) * b for a, b in zip(M[0], M[1])]
                 for _ in range(rows)]
        assert row_lattice_hnf(M) == [row for row in hnf(M)[0] if any(row)]
        transposed = [list(col) for col in zip(*M)] or [[] for _ in range(cols)]
        member = [sum(rng.randint(-3, 3) * row[j] for row in M) for j in range(cols)]
        for v in (member, [rng.randint(-4, 4) for _ in range(cols)], [a + 1 for a in member]):
            assert lattice_contains(M, v) == (solve_integer(transposed, v) is not None)
    with pytest.raises(ValueError):
        lattice_contains([[1, 2]], [1, 2, 3])
    # rows of width 0 still fix the width; no rows fix none
    with pytest.raises(ValueError):
        lattice_contains([[]], [0, 0])
    assert lattice_contains([[]], [])
    assert lattice_contains([], [0, 0, 0]) and not lattice_contains([], [0, 1])


def test_lattices_equal_under_unimodular_change():
    rng = random.Random(4)
    for _ in range(20):
        M = random_matrix(rng, 3, 3)
        _, U = hnf(M)
        assert row_lattice_hnf(M) == row_lattice_hnf(matmul(U, M))


def test_abelianization_examples():
    assert abelianization([], 3) == (3, [])
    assert abelianization([[2, 0], [0, 3]], 2) == (0, [6])
    assert abelianization([[1, 1, 1]], 3) == (2, [])
    assert abelianization([[2, 0, 0], [0, 2, 0]], 3) == (1, [2, 2])
    assert abelianization([[0, 0]], 2) == (2, [])
    # trivial group
    assert abelianization([[1, 0], [0, 1]], 2) == (0, [])
    assert abelianization([], 0) == (0, [])


@pytest.mark.parametrize("generators", [True, 2.0, "2", None])
def test_abelianization_generator_count_must_be_an_int(generators):
    with pytest.raises(TypeError):
        abelianization([], generators)
    with pytest.raises(TypeError):
        abelianization([[2, 0]], generators)


def test_abelianization_rejects_negative_counts_and_mismatched_widths():
    with pytest.raises(ValueError):
        abelianization([], -3)
    with pytest.raises(ValueError):
        abelianization([[]], 2)
    with pytest.raises(ValueError):
        abelianization([[1, 2, 3]], 2)


def test_parse_and_format():
    M = [[1, -2], [30, 4]]
    assert format_matrix(M) == "1 -2\n30 4"
    again = [[int(a) for a in line.split()] for line in format_matrix(M).splitlines()]
    assert again == M


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    )
)
def test_hnf_is_canonical_for_the_row_lattice(rows):
    # two generating sets of one lattice share a HNF
    M = as_int_matrix(rows)
    doubled = as_int_matrix(rows + [[2 * a for a in rows[0]]])
    H1, _ = hnf(M)
    H2, _ = hnf(doubled)
    nz1 = [list(r) for r in H1 if any(r)]
    nz2 = [list(r) for r in H2 if any(r)]
    assert nz1 == nz2


def test_results_are_plain_lists():
    M = [[2, 4, 4], [-6, 6, 12], [-4, 10, 16]]  # rank 2
    H, U = hnf(M)
    x0, ker = solve_integer(M, [2, -6, -4])
    assert len(ker) == 1
    for X in (H, U, ker):
        assert type(X) is list and all(type(row) is list for row in X)
        assert all(type(a) is int for row in X for a in row)
    assert type(x0) is list and all(type(a) is int for a in x0)
    # the input is copied, never modified in place
    assert M == [[2, 4, 4], [-6, 6, 12], [-4, 10, 16]]


MATRIX_FUNCTIONS = [
    as_int_matrix,
    hnf,
    row_lattice_hnf,
    lambda M: abelianization(M, 2),
    lambda M: solve_integer(M, [0]),
    lambda M: lattice_contains(M, [0, 0]),
]


@pytest.mark.parametrize("fn", MATRIX_FUNCTIONS)
@pytest.mark.parametrize(
    "bad", [[[1.7, True]], [[True, 1]], [[1.0, 2]], [["1", 2]], [[None, 2]], ["12"], "12", 5]
)
def test_matrix_entries_must_be_ints(fn, bad):
    with pytest.raises(TypeError):
        fn(bad)


@pytest.mark.parametrize("fn", MATRIX_FUNCTIONS)
def test_ragged_rows_are_rejected(fn):
    with pytest.raises(ValueError):
        fn([[1, 2], [3]])


@pytest.mark.parametrize("bad", [[1.0], [True], ["1"], [None], "1", 1])
def test_right_hand_sides_must_be_ints(bad):
    with pytest.raises(TypeError):
        solve_integer([[1]], bad)
    with pytest.raises(TypeError):
        lattice_contains([[1]], bad)
    with pytest.raises(TypeError):
        lattice_contains([], bad)


def run_python(*args):
    """Run a fresh interpreter that imports this checkout of braidcryst."""
    src = str(Path(braidcryst.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_solve_integer_check_survives_optimize():
    # under -O every assert is gone; the check on the solve must still fire
    script = """
import sys
import braidcryst.zlinalg as z
print(sys.flags.optimize, z.solve_integer([[2, 4]], [6]) == ([3, 0], [[-2, 1]]))
z._reduce = lambda basis, v: [1] * len(basis)
try:
    z.solve_integer([[2, 4]], [6])
except z.VerificationError:
    print("raised")
"""
    assert run_python("-O", "-c", script) == ["1", "True", "raised"]


def test_import_does_not_load_numpy():
    script = "import sys, braidcryst; print(any(m.split('.')[0] == 'numpy' for m in sys.modules))"
    assert run_python("-c", script) == ["False"]


def test_snf_and_abelianization_match_sympy():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(rng, rows, cols, bound=6)
        if rng.random() < 0.3:  # rank one, to exercise zero invariants
            M = [[rng.randint(-2, 2) * a for a in M[0]] for _ in range(rows)]
        S = smith_normal_form(Matrix(M), domain=ZZ)
        expected = [abs(int(S[i, i])) for i in range(min(S.shape))]
        rank = sum(1 for d in expected if d)
        assert abelianization(M, cols) == (cols - rank, [d for d in expected if d > 1])
