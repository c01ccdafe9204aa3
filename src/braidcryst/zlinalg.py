"""Exact integer linear algebra: Hermite normal form with its transform,
integer linear solving, lattice membership, and the Smith invariants of
finitely generated abelian groups.

A matrix is a list of rows, each a list of python ints, so entries never
overflow and no floating point is involved.  Inputs may be lists or tuples
of rows; every entry must be an ``int`` (``bool``, ``float`` and other types
raise ``TypeError``, ragged rows raise ``ValueError``).  Results are always
fresh ``list[list[int]]`` (matrices) or ``list[int]`` (vectors).

One Hermite elimination serves every function: ``hnf`` directly (rows, as
``U @ M = H``, carrying the transform as identity columns beside ``M``),
the lattice functions with no transform, ``solve_integer`` through ``hnf``
on the transpose, and ``abelianization`` on rows and columns in turn.  Its
pivot is the row of least nonzero ``|entry|`` in the column, and the rows
below lose nearest-integer multiples of it, which keeps transforms small
(Cohen, GTM 138, section 2.4).  Transforms are valid ones, not canonical.

>>> hnf([[2, 4], [1, 3]])
([[1, 1], [0, 2]], [[1, -1], [-1, 2]])
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .braidword import VerificationError

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


def _echelon(H: Matrix, width: int) -> None:
    """Bring the first ``width`` columns of ``H`` to Hermite normal form in
    place; the row operations carry the columns past them along."""
    m = len(H)
    row = 0
    for col in range(width):
        if row == m:
            break
        while True:
            live = [r for r in range(row, m) if H[r][col]]
            if not live:
                break
            pivot = min(live, key=lambda r: abs(H[r][col]))
            if pivot != row:
                H[row], H[pivot] = H[pivot], H[row]
            if len(live) == 1:
                break
            piv = H[row][col]
            for r in range(row + 1, m):
                a = H[r][col]
                if a:
                    q = (2 * a + piv) // (2 * piv)  # nearest integer to a / piv
                    H[r] = _sub_multiple(H[r], q, H[row])
        if not live:
            continue
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
        for r in range(row):
            q = H[r][col] // H[row][col]
            if q:
                H[r] = _sub_multiple(H[r], q, H[row])
        row += 1


def hnf(M: MatrixLike) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)``, both lists of rows, with ``U @ M = H``, ``U``
    unimodular, ``H`` in row echelon form with positive pivots and the
    entries above each pivot reduced into ``[0, pivot)``.  ``H`` is the
    unique HNF of the row lattice of ``M``; ``U`` is one valid transform,
    not a canonical one.  Both come from one elimination of ``[M | I]``:
    the identity columns record the row operations.
    """
    M = as_int_matrix(M)
    width = _width(M)
    HU = [row + e for row, e in zip(M, identity_matrix(len(M)))]
    _echelon(HU, width)
    return [row[:width] for row in HU], [row[width:] for row in HU]


def _transpose(M: Matrix, width: int) -> Matrix:
    """The transpose of ``M``, whose rows have ``width`` entries."""
    return [list(col) for col in zip(*M)] if M else [[] for _ in range(width)]


def _smith(D: Matrix, width: int) -> None:
    """Bring ``D`` (rows of ``width`` entries) to Smith normal form in place:
    Hermite eliminations of the rows and of the columns alternate until ``D``
    is diagonal; while some ``d[i]`` does not divide ``d[i + 1]``, column
    ``i + 1`` is added to column ``i`` and they run again (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).  This ends: each round lowers the first pivot
    not yet alone in its row and column, or leaves it alone there, and each
    fix lowers ``d[i]`` to ``gcd(d[i], d[i + 1])`` and keeps ``d[:i]``."""
    m = len(D)
    while True:
        _echelon(D, width)
        T = _transpose(D, width)  # column operations on D are row operations on T
        _echelon(T, m)
        D[:] = _transpose(T, m)
        if any(a for i, row in enumerate(T) for j, a in enumerate(row) if i != j):
            continue
        pivots = [d for d in diagonal(T) if d]
        i = next((i for i in range(len(pivots) - 1) if pivots[i + 1] % pivots[i]), None)
        if i is None:
            return
        # add column i + 1 to column i: adding rows would be undone, since the
        # row elimination leaves a lone pivot in its row
        for row in D:
            row[i] += row[i + 1]


def diagonal(D: Matrix) -> list[int]:
    return [D[i][i] for i in range(min(len(D), _width(D)))]


def _reduce(basis: Matrix, v: list[int]) -> list[int] | None:
    """Coefficients ``q`` with ``v == sum(q[i] * basis[i])`` for the nonzero
    rows ``basis`` of a HNF, or ``None`` when ``v`` is not in their span."""
    q = []
    for row in basis:
        col = next(j for j, a in enumerate(row) if a)
        c, rest = divmod(v[col], row[col])
        if rest:
            return None
        if c:
            v = _sub_multiple(v, c, row)
        q.append(c)
    return None if any(v) else q


def solve_integer(
    M: MatrixLike, b: Sequence[int]
) -> tuple[list[int], list[list[int]]] | None:
    """Solve ``M x = b`` over the integers.

    Returns ``(x0, kernel_basis)`` where ``x0`` is one solution (a list of
    ints) and ``kernel_basis`` a lattice basis of ``{x : M x = 0}`` (a list
    of such lists), or ``None`` when no integer solution exists.

    The Hermite elimination of ``M``'s transpose gives ``U @ M.T = H``; it
    ends, since each step lowers the least nonzero entry in its column.
    ``b`` is reduced against the nonzero rows of ``H``, ``x0`` combines the
    rows of ``U`` with the quotients, and the rows of ``U`` beside zero rows
    of ``H`` span the kernel.  Both are valid, not canonical, and are checked
    against ``M`` (``VerificationError`` otherwise).

    >>> solve_integer([[2, 4]], [6])
    ([3, 0], [[-2, 1]])
    >>> solve_integer([[2, 4]], [3]) is None
    True
    """
    M = as_int_matrix(M)
    n = _width(M)
    b = _int_vector(b)
    if len(b) != len(M):
        raise ValueError("right-hand side length does not match")
    H, U = hnf(_transpose(M, n))
    rank = sum(1 for row in H if any(row))
    q = _reduce(H[:rank], b)
    if q is None:
        return None
    x0 = [sum(map(mul, q, col)) for col in zip(*U)]
    kernel = U[rank:]
    if mat_vec(M, x0) != b or any(any(mat_vec(M, k)) for k in kernel):
        raise VerificationError("integer solve does not satisfy its system")
    return x0, kernel


def row_lattice_hnf(rows: MatrixLike) -> Matrix:
    """Canonical basis (nonzero HNF rows) of the lattice spanned by ``rows``."""
    H = as_int_matrix(rows)
    _echelon(H, _width(H))
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
    return _reduce(row_lattice_hnf(M), v) is not None


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
    _smith(R, generators)
    diag = diagonal(R)
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in diag if d > 1]
    return generators - rank, factors
