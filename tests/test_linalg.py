"""The one determinant (`det_int`), the Alexander polynomial interpolated
from it, and the Smith normal form's transforms, against cofactor
expansion over Q[t^{±1}] (`conftest.cofactor_det`)."""

import math
import random
from fractions import Fraction

from rhoslice.linalg import det_int
from rhoslice.polyalg import LaurentPoly
from rhoslice.seifert import alexander_polynomial, pattern_9_46, unknot

from conftest import (
    cofactor_det,
    random_laurent,
    random_seifert,
    smith_with_u,
    snf_is_valid,
)


def normalized(p: LaurentPoly) -> LaurentPoly:
    """p scaled to lowest exponent 0, integer-primitive coefficients and a
    positive leading coefficient."""
    p = p.shift(-p.low)
    coeffs = [c for _, c in p.items()]
    p = p * math.lcm(*(c.denominator for c in coeffs))
    p = p * Fraction(1, math.gcd(*(int(c) for _, c in p.items())))
    return -p if p.leading() < 0 else p


def test_seifert_pencils_against_cofactor():
    rng = random.Random(2202)
    for genus, count in ((1, 18), (2, 20), (3, 10), (4, 4)):
        for _ in range(count):
            V = random_seifert(rng, genus=genus)
            oracle = normalized(cofactor_det(V.presentation("t")))
            assert alexander_polynomial(V) == oracle


def test_snf_transforms_against_cofactor():
    rng = random.Random(4009)
    for _ in range(50):
        n, m = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        A = [[random_laurent(rng, "t", max_deg=2, min_exp=-1)
              for _ in range(m)] for _ in range(n)]
        snf_is_valid(A, *smith_with_u(A))


def test_pivot_swap_on_9_46():
    # the (0, 0) entry of kV - V^T is 0 at every node, so det_int swaps rows
    V = pattern_9_46().seifert
    pres = V.presentation("s")
    assert pres[0][0].is_zero()
    det = cofactor_det(pres)
    for k in range(-2, 5):
        rows = [[k * V[i, j] - V[j, i] for j in range(2)] for i in range(2)]
        assert det_int(rows) == det.evaluate(k)
    s = LaurentPoly.var("s")
    assert alexander_polynomial(V, "s") == (2 * s - 1) * (s - 2)


def test_singular_matrix():
    rng = random.Random(7)
    for _ in range(20):
        row = [rng.randint(-5, 5) for _ in range(4)]
        others = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        f = rng.choice([-3, -1, 2])
        mat = [row] + others + [[f * x for x in row]]
        rng.shuffle(mat)
        assert det_int(mat) == 0
    zero_col = [[0, 1, 2], [0, 3, 4], [0, 5, 7]]
    assert det_int(zero_col) == 0


def test_empty_and_identity():
    assert det_int([]) == 1
    assert det_int([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 1
    assert det_int([[0, 1], [1, 0]]) == -1
    assert alexander_polynomial(unknot(), "s") == LaurentPoly.one("s")
