"""Small exact linear algebra: rational matrices (row reduction and
null spaces), the integer determinant, and the identity and
matrix-vector product for matrices of Laurent polynomials.

`det_int` is the one determinant: the Alexander polynomial interpolates
it at integer points.  The one elimination over Q[t^{±1}] is
`almodule.smith_normal_form`.  Everything is exact; no floating point."""

from __future__ import annotations

from fractions import Fraction

from .polyalg import LaurentPoly

Row = list[Fraction]
Matrix = list[Row]


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Zero rows are dropped.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : rows @ x = 0} as a list of length-ncols vectors."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Integer determinant
# ---------------------------------------------------------------------------


def det_int(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Matrices of Laurent polynomials
# ---------------------------------------------------------------------------

PolyMatrix = list[list[LaurentPoly]]


def poly_mat_identity(n: int, variable: str) -> PolyMatrix:
    one, zero = LaurentPoly.one(variable), LaurentPoly.zero(variable)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def poly_mat_apply(a: PolyMatrix, vec: list[LaurentPoly]) -> list[LaurentPoly]:
    out = []
    for row in a:
        acc = LaurentPoly.zero(row[0].variable if row else "t")
        for entry, x in zip(row, vec):
            acc = acc + entry * x
        out.append(acc)
    return out
