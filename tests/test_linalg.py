"""The Bareiss determinant and adjugate against cofactor expansion.

`cofactor_det` and `cofactor_adjugate` are the memoized cofactor expansion
and the determinant-per-minor adjugate that the elimination replaced; they
are exponential in the dimension and serve only as oracles here.
"""

import random

import pytest

from rhoslice.almodule import smith_normal_form
from rhoslice.linalg import (
    LinalgError,
    PolyMatrix,
    poly_mat_adjugate,
    poly_mat_det,
    poly_mat_identity,
    poly_mat_mul,
)
from rhoslice.polyalg import LaurentPoly
from rhoslice.seifert import pattern_9_46

from conftest import random_laurent, random_seifert


def cofactor_det(a: PolyMatrix, variable: str | None = None) -> LaurentPoly:
    """Determinant over Q[v^{±1}] by cofactor expansion on the sparsest row.

    Matrix dimensions here are small (presentation matrices of knots at desk
    scale), so cofactor expansion with memoization on column subsets is fine.
    """
    n = len(a)
    if variable is None:
        variable = a[0][0].variable if n else "t"
    if n == 0:
        return LaurentPoly.one(variable)
    cols = tuple(range(n))
    cache: dict[tuple[int, tuple[int, ...]], LaurentPoly] = {}

    def minor(r: int, cs: tuple[int, ...]) -> LaurentPoly:
        if not cs:
            return LaurentPoly.one(variable)
        key = (r, cs)
        got = cache.get(key)
        if got is not None:
            return got
        acc = LaurentPoly.zero(variable)
        for idx, c in enumerate(cs):
            entry = a[r][c]
            if entry.is_zero():
                continue
            rest = cs[:idx] + cs[idx + 1:]
            term = entry * minor(r + 1, rest)
            acc = acc + (term if idx % 2 == 0 else -term)
        cache[key] = acc
        return acc

    return minor(0, cols)


def cofactor_adjugate(a: PolyMatrix) -> PolyMatrix:
    """Adjugate matrix: adj(A)[i][j] = (-1)^{i+j} * det(A delete row j, col i)."""
    n = len(a)
    variable = a[0][0].variable if n else "t"
    if n == 0:
        return []
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[a[r][c] for c in range(n) if c != i]
                   for r in range(n) if r != j]
            d = cofactor_det(sub, variable)
            out[i][j] = d if (i + j) % 2 == 0 else -d
    return out


def check_against_oracle(a: PolyMatrix) -> None:
    det = poly_mat_det(a)
    assert det == cofactor_det(a)
    adj, det2 = poly_mat_adjugate(a)
    assert det2 == det
    assert adj == cofactor_adjugate(a)
    n = len(a)
    scalar = [[det if i == j else LaurentPoly.zero(det.variable)
               for j in range(n)] for i in range(n)]
    assert poly_mat_mul(adj, a) == scalar


def test_seifert_pencils_against_cofactor():
    # 50 pencils; the oracle's adjugate takes about 2 s at genus 4
    rng = random.Random(2202)
    for genus, count in ((1, 18), (2, 20), (3, 10), (4, 2)):
        for _ in range(count):
            V = random_seifert(rng, genus=genus)
            check_against_oracle(V.presentation("t"))


def test_snf_transforms_against_cofactor():
    rng = random.Random(4009)
    for _ in range(50):
        n, m = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        A = [[random_laurent(rng, "t", max_deg=2, min_exp=-1)
              for _ in range(m)] for _ in range(n)]
        U, _D, W = smith_normal_form(A)
        for T in (U, W):
            check_against_oracle(T)
            assert poly_mat_det(T).is_unit()


def test_pivot_swap_on_9_46():
    pres = pattern_9_46().seifert.presentation("s")
    assert pres[0][0].is_zero()
    check_against_oracle(pres)
    s = LaurentPoly.var("s")
    assert poly_mat_det(pres) == -(2 * s - 1) * (s - 2)


def test_singular_matrix():
    rng = random.Random(7)
    row = [random_laurent(rng, "t", allow_zero=False) for _ in range(3)]
    other = [random_laurent(rng, "t") for _ in range(3)]
    f = random_laurent(rng, "t", allow_zero=False)
    a = [row, other, [f * x for x in row]]
    assert cofactor_det(a).is_zero()
    assert poly_mat_det(a) == LaurentPoly.zero("t")
    with pytest.raises(LinalgError, match="singular"):
        poly_mat_adjugate(a)
    zero_col = [[LaurentPoly.zero("t"), x] for x in (f, f * f)]
    assert poly_mat_det(zero_col).is_zero()
    with pytest.raises(LinalgError):
        poly_mat_adjugate(zero_col)


def test_empty_and_identity():
    assert poly_mat_det([], "s") == LaurentPoly.one("s")
    assert poly_mat_adjugate([]) == ([], LaurentPoly.one("t"))
    ident = poly_mat_identity(3, "t")
    assert poly_mat_adjugate(ident) == (ident, LaurentPoly.one("t"))
