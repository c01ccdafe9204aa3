"""Exact integer linear algebra: Hermite and Smith normal forms with
transforms, integer linear solving, lattice membership, and finitely
generated abelian group invariants.

A matrix is a list of rows, each a list of python ints, so entries never
overflow and no floating point is involved.  Inputs may be lists or tuples
of rows; every entry must be an ``int`` (``bool``, ``float`` and other types
raise ``TypeError``, ragged rows raise ``ValueError``).  Results are always
fresh ``list[list[int]]`` (matrices) or ``list[int]`` (vectors).

Row convention throughout: ``hnf`` returns ``(H, U)`` with ``U @ M = H`` and
``U`` unimodular; ``snf`` returns ``(D, U, V)`` with ``U @ M @ V = D``
diagonal and ``d1 | d2 | ...``.

One Hermite elimination serves ``hnf`` and, with no transform, the lattice
functions.  Its pivot is the row of least nonzero ``|entry|`` in the column,
and the rows below lose nearest-integer multiples of it, which keeps ``U``
small (Cohen, GTM 138, section 2.4).  ``U`` is one valid transform, not a
canonical one.

>>> hnf([[2, 4], [1, 3]])
([[1, 1], [0, 2]], [[1, -1], [-1, 2]])
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Matrix = list[list[int]]
MatrixLike = Sequence[Sequence[int]]


def _int_vector(v: Sequence[int]) -> list[int]:
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list or tuple of ints, got {type(v).__name__}")
    other = set(map(type, v)) - {int}
    if other:
        raise TypeError(f"expected int entries, got {other.pop().__name__}")
    return list(v)


def as_int_matrix(rows: MatrixLike) -> Matrix:
    """Validated copy of ``rows``: a list of equal-length lists of ints."""
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"expected a list or tuple of rows, got {type(rows).__name__}")
    M = [_int_vector(row) for row in rows]
    if M and any(len(row) != len(M[0]) for row in M):
        raise ValueError("ragged rows")
    return M


def _width(M: Matrix) -> int:
    return len(M[0]) if M else 0


def mat_vec(M: MatrixLike, v: Sequence[int]) -> list[int]:
    """The product ``M @ v`` of a matrix and a vector."""
    return [sum(map(mul, row, v)) for row in M]


def _sub_multiple(x: list[int], q: int, y: list[int]) -> list[int]:
    """The row ``x - q * y``."""
    return [a - q * b for a, b in zip(x, y)]


def format_matrix(M: MatrixLike) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in M)


def identity_matrix(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _echelon(H: Matrix, U: Matrix | None) -> None:
    """Bring ``H`` to Hermite normal form in place, applying every row
    operation to ``U`` as well unless it is ``None``."""
    m = len(H)
    row = 0
    for col in range(_width(H)):
        if row == m:
            break
        while True:
            live = [r for r in range(row, m) if H[r][col]]
            if not live:
                break
            pivot = min(live, key=lambda r: abs(H[r][col]))
            if pivot != row:
                H[row], H[pivot] = H[pivot], H[row]
                if U is not None:
                    U[row], U[pivot] = U[pivot], U[row]
            if len(live) == 1:
                break
            piv = H[row][col]
            for r in range(row + 1, m):
                a = H[r][col]
                if a:
                    q = (2 * a + piv) // (2 * piv)  # nearest integer to a / piv
                    H[r] = _sub_multiple(H[r], q, H[row])
                    if U is not None:
                        U[r] = _sub_multiple(U[r], q, U[row])
        if not live:
            continue
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
            if U is not None:
                U[row] = [-a for a in U[row]]
        for r in range(row):
            q = H[r][col] // H[row][col]
            if q:
                H[r] = _sub_multiple(H[r], q, H[row])
                if U is not None:
                    U[r] = _sub_multiple(U[r], q, U[row])
        row += 1


def hnf(M: MatrixLike) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)``, both lists of rows, with ``U @ M = H``, ``U``
    unimodular, ``H`` in row echelon form with positive pivots and the
    entries above each pivot reduced into ``[0, pivot)``.  ``H`` is the
    unique HNF of the row lattice of ``M``; ``U`` is one valid transform,
    not a canonical one.  In each column the pivot is the row at or below
    the current one with the least nonzero ``|entry|``, and the rows below
    it lose nearest-integer multiples of it until the column below the
    pivot is zero; this keeps the entries of ``U`` small.
    """
    H = as_int_matrix(M)
    U = identity_matrix(len(H))
    _echelon(H, U)
    return H, U


def snf(M: MatrixLike) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form ``U @ M @ V = D`` with divisibility along the diagonal.

    ``D``, ``U`` and ``V`` are lists of rows.
    """
    D = as_int_matrix(M)
    m, n = len(D), _width(D)
    U = identity_matrix(m)
    # V is kept transposed, so that its column operations are row operations
    VT = identity_matrix(n)

    def smallest_nonzero(t: int) -> tuple[int, int] | None:
        """First entry in row-major order of least nonzero absolute value."""
        best = None
        best_abs = 0
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:  # nothing later can be smaller
                        return best
        return best

    t = 0
    while True:
        pos = smallest_nonzero(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            D[t], D[i] = D[i], D[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in D:
                row[t], row[j] = row[j], row[t]
            VT[t], VT[j] = VT[j], VT[t]
        pivot = D[t][t]
        dirty = False
        for r in range(t + 1, m):
            q = D[r][t] // pivot
            if q:
                D[r] = _sub_multiple(D[r], q, D[t])
                U[r] = _sub_multiple(U[r], q, U[t])
            if D[r][t] != 0:
                dirty = True
        for c in range(t + 1, n):
            q = D[t][c] // pivot
            if q:
                for row in D:
                    row[c] -= q * row[t]
                VT[c] = _sub_multiple(VT[c], q, VT[t])
            if D[t][c] != 0:
                dirty = True
        if dirty:
            continue
        # pivot divides every remaining entry? if not, fold the offender in
        offender = None
        if abs(pivot) != 1:  # a unit pivot divides everything
            remainder = pivot.__rmod__  # remainder(x) == x % pivot
            offender = next(
                (r for r in range(t + 1, m) if any(map(remainder, D[r][t + 1 :]))), None
            )
        if offender is not None:
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
            continue
        if pivot < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return D, U, [list(col) for col in zip(*VT)]


def diagonal(D: Matrix) -> list[int]:
    return [D[i][i] for i in range(min(len(D), _width(D)))]


def solve_integer(
    M: MatrixLike, b: Sequence[int]
) -> tuple[list[int], list[list[int]]] | None:
    """Solve ``M x = b`` over the integers.

    Returns ``(x0, kernel_basis)`` where ``x0`` is one solution (a list of
    ints) and ``kernel_basis`` a lattice basis of ``{x : M x = 0}`` (a list
    of such lists), or ``None`` when no integer solution exists.
    """
    M = as_int_matrix(M)
    m, n = len(M), _width(M)
    b = _int_vector(b)
    if len(b) != m:
        raise ValueError("right-hand side length does not match")
    D, U, V = snf(M)
    c = mat_vec(U, b)
    diag = diagonal(D)
    rank = sum(1 for d in diag if d != 0)
    y = [0] * n
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d != 0:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    x0 = mat_vec(V, y)
    kernel = [[row[j] for row in V] for j in range(rank, n)]
    return x0, kernel


def row_lattice_hnf(rows: MatrixLike) -> Matrix:
    """Canonical basis (nonzero HNF rows) of the lattice spanned by ``rows``."""
    H = as_int_matrix(rows)
    _echelon(H, None)
    return [row for row in H if any(row)]


def lattice_contains(rows: MatrixLike, v: Sequence[int]) -> bool:
    """Is ``v`` in the row lattice of ``rows``?

    ``v`` is reduced against the HNF basis one pivot at a time; it is a
    member exactly when nothing is left.

    >>> lattice_contains([[2, 0], [0, 3]], [4, -3])
    True
    >>> lattice_contains([[2, 0], [0, 3]], [1, 0])
    False
    """
    M = as_int_matrix(rows)
    v = _int_vector(v)
    if not M:  # no rows, so no width to check against
        return not any(v)
    if len(v) != _width(M):
        raise ValueError("vector length does not match the rows")
    for row in row_lattice_hnf(M):
        col = next(j for j, a in enumerate(row) if a)
        q, rest = divmod(v[col], row[col])
        if rest:
            return False
        if q:
            v = _sub_multiple(v, q, row)
    return not any(v)


def lattices_equal(rows_a: MatrixLike, rows_b: MatrixLike) -> bool:
    return row_lattice_hnf(rows_a) == row_lattice_hnf(rows_b)


def abelianization(relations: MatrixLike, generators: int) -> tuple[int, list[int]]:
    """Invariants of the abelian group ``Z^generators / row-span(relations)``.

    Returns ``(free_rank, invariant_factors)`` with the factors > 1 and each
    dividing the next.  ``generators`` must be a non-negative ``int`` and
    every relation row must have that many entries.
    """
    if type(generators) is not int:
        raise TypeError(f"generator count must be an int, got {type(generators).__name__}")
    if generators < 0:
        raise ValueError("generator count must be non-negative")
    R = as_int_matrix(relations)
    if R and len(R[0]) != generators:
        raise ValueError("relation width does not match generator count")
    D, _, _ = snf(R)
    diag = diagonal(D)
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in diag if d > 1]
    return generators - rank, factors
