"""Small exact linear algebra: the integer determinant, and the identity
and matrix-vector product for matrices of Laurent polynomials.  Rational
row reduction and null spaces are in `rhoslice.submodule`.

`det_int` is the one determinant: the Alexander polynomial interpolates
it at integer points.  The one elimination over Q[t^{±1}] is
`almodule.smith_normal_form`.  Everything is exact; no floating point."""

from __future__ import annotations

from .polyalg import LaurentPoly


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
