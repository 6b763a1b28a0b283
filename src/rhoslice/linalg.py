"""Small exact linear algebra: rational matrices (row reduction and
null spaces), integer determinants, and matrices of Laurent polynomials.

Determinants and adjugates of Laurent-polynomial matrices share one
fraction-free (Bareiss) elimination of O(n^3) ring operations, each
division exact: forward elimination gives the determinant, and
Gauss-Jordan elimination of [A | I] gives the adjugate together with the
determinant.  Everything is Fraction- or LaurentPoly-exact; no floating
point."""

from __future__ import annotations

from fractions import Fraction

from .polyalg import LaurentPoly, div_exact

Row = list[Fraction]
Matrix = list[Row]


class LinalgError(ValueError):
    pass


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
# Integer determinant (for Seifert matrix validation)
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


def poly_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = LaurentPoly.zero(a[i][0].variable)
            for p in range(k):
                acc = acc + a[i][p] * b[p][j]
            row.append(acc)
        out.append(row)
    return out


def poly_mat_identity(n: int, variable: str) -> PolyMatrix:
    one, zero = LaurentPoly.one(variable), LaurentPoly.zero(variable)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _bareiss(a: PolyMatrix, jordan: bool) -> tuple[int, LaurentPoly] | None:
    """Fraction-free (Bareiss) elimination of the rows of `a`, in place.

    `a` has n rows and at least n columns.  Step k swaps a nonzero pivot
    into position (k, k) from the rows below, then clears column k in the
    rows below it -- and, when `jordan`, in the rows above it too -- by

        x_ij <- (p_k * x_ij - x_ik * x_kj) / p_{k-1},

    with p_k the k-th pivot and p_{-1} = 1.  By Sylvester's identity every
    entry stays a minor of the input, so each division is exact.  Entries
    in columns 0..k of the other rows are left as they are: no later step
    reads them.

    Returns (sign of the row permutation, last pivot p_{n-1}); their
    product is the determinant of the left n x n block.  Returns None when
    that block is singular.
    """
    n, width = len(a), len(a[0])
    sign, prev = 1, None
    for k in range(n):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(n) if jordan else range(k + 1, n):
            if i == k:
                continue
            row = a[i]
            f = row[k]
            for j in range(k + 1, width):
                x = row[j] * pk - f * pivot_row[j]
                row[j] = x if prev is None else div_exact(x, prev)
        prev = pk
    return sign, prev


def poly_mat_det(a: PolyMatrix, variable: str | None = None) -> LaurentPoly:
    """Determinant over Q[v^{±1}] by forward Bareiss elimination, O(n^3)
    ring operations."""
    n = len(a)
    if variable is None:
        variable = a[0][0].variable if n else "t"
    if n == 0:
        return LaurentPoly.one(variable)
    done = _bareiss([list(row) for row in a], jordan=False)
    if done is None:
        return LaurentPoly.zero(variable)
    sign, last = done
    return last if sign > 0 else -last


def poly_mat_adjugate(a: PolyMatrix) -> tuple[PolyMatrix, LaurentPoly]:
    """(adj(A), det(A)) from one Gauss-Jordan Bareiss pass over [A | I].

    The pass multiplies [A | I] on the left by some L with L A = p I, p the
    last pivot, so L = p A^{-1} = (p / det A) adj(A), and det A = sign * p.
    The right block therefore ends as sign * adj(A).  Raises LinalgError
    for a singular A, whose adjugate this pass cannot produce.
    """
    n = len(a)
    if n == 0:
        return [], LaurentPoly.one("t")
    ident = poly_mat_identity(n, a[0][0].variable)
    m = [list(row) + unit_row for row, unit_row in zip(a, ident)]
    done = _bareiss(m, jordan=True)
    if done is None:
        raise LinalgError("adjugate of a singular matrix")
    sign, last = done
    if sign > 0:
        return [row[n:] for row in m], last
    return [[-x for x in row[n:]] for row in m], -last


def poly_mat_apply(a: PolyMatrix, vec: list[LaurentPoly]) -> list[LaurentPoly]:
    out = []
    for row in a:
        acc = LaurentPoly.zero(row[0].variable if row else "t")
        for entry, x in zip(row, vec):
            acc = acc + entry * x
        out.append(acc)
    return out
