import random
from fractions import Fraction

import pytest

from rhoslice.polyalg import LaurentPoly
from rhoslice.seifert import SeifertMatrix
from rhoslice.signatures import GaussianRational


def random_seifert(rng: random.Random, genus: int = 1,
                   spread: int = 2) -> SeifertMatrix:
    """Random valid Seifert matrix: start from the standard block form with
    det(V - V^T) = ±1 and add a random symmetric integer matrix (which does
    not change V - V^T)."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for g in range(genus):
        rows[2 * g][2 * g + 1] = 1
    sym = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] += sym[i][j]
            if j > i:
                rows[j][i] += sym[i][j]
    return SeifertMatrix(rows)


def random_laurent(rng: random.Random, variable: str = "t", max_deg: int = 3,
                   min_exp: int = -2, allow_zero: bool = True) -> LaurentPoly:
    coeffs = {}
    for e in range(min_exp, min_exp + max_deg + 3):
        if rng.random() < 0.5:
            coeffs[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = LaurentPoly(coeffs, variable)
    if p.is_zero() and not allow_zero:
        return LaurentPoly({0: 1}, variable)
    return p


def _gauss_pow(w: GaussianRational, n: int) -> GaussianRational:
    out = GaussianRational.of(1)
    base = w
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def eval_gaussian(p: LaurentPoly, w: GaussianRational) -> GaussianRational:
    """p(w) for a Laurent polynomial p at a Gaussian-rational point w."""
    acc = GaussianRational.of(0)
    winv = None
    for e, c in p.items():
        if e >= 0:
            term = _gauss_pow(w, e)
        else:
            if winv is None:
                winv = w.inverse()
            term = _gauss_pow(winv, -e)
        acc = acc + term * c
    return acc


@pytest.fixture
def rng():
    return random.Random(90125)
