import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from rhoslice.almodule import AlexanderModule, Summand
from rhoslice.blanchfield import LinkingForm
from rhoslice.linalg import PolyMatrix, poly_mat_identity
from rhoslice.polyalg import FracCoset, LaurentPoly, coset_reduce, divides
from rhoslice.seifert import SeifertMatrix


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


# Gaussian rationals: the complex arithmetic that signatures were once
# computed in, kept as an independent reference for the real symmetric
# inertia the package uses.


class GaussianRational(NamedTuple):
    """Element of Q(i)."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussianRational(self.re * o, self.im * o)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def circle_point(u: Fraction | None) -> GaussianRational:
    """w(u) = (1 - iu)/(1 + iu) on the unit circle; u = None gives w = -1."""
    if u is None:
        return GaussianRational.of(-1, 0)
    u = Fraction(u)
    d = 1 + u * u
    return GaussianRational((1 - u * u) / d, Fraction(-2) * u / d)


def lt_hermitian(V: SeifertMatrix, u: Fraction | None):
    """The hermitian (1-w)V + (1-conj(w))V^T at w = circle_point(u)."""
    w = circle_point(u)
    one = GaussianRational.of(1)
    f, g = one - w, one - w.conj()
    n = V.dim
    return [[f * V[i, j] + g * V[j, i] for j in range(n)] for i in range(n)]


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


# Cofactor expansion: exponential in the dimension, and independent of the
# program's eliminations, so it serves as their oracle.


def cofactor_det(a: PolyMatrix, variable: str | None = None) -> LaurentPoly:
    """Determinant over Q[v^{±1}] by cofactor expansion along the rows,
    memoized on column subsets."""
    n = len(a)
    if variable is None:
        variable = a[0][0].variable if n else "t"
    if n == 0:
        return LaurentPoly.one(variable)
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

    return minor(0, tuple(range(n)))


def cofactor_adjugate(a: PolyMatrix) -> PolyMatrix:
    """Adjugate matrix: adj(A)[i][j] = (-1)^{i+j} * det(A delete row j, col i)."""
    n = len(a)
    variable = a[0][0].variable if n else "t"
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[a[r][c] for c in range(n) if c != i]
                   for r in range(n) if r != j]
            d = cofactor_det(sub, variable)
            out[i][j] = d if (i + j) % 2 == 0 else -d
    return out


def snf_is_valid(A, U, D, W, U_inv):
    """U*A*W = D, U*U_inv = I, det U and det W units, D diagonal with
    d_1 | d_2 | ..."""
    assert poly_mat_mul(poly_mat_mul(U, A), W) == D
    assert poly_mat_mul(U, U_inv) == poly_mat_identity(len(U), A[0][0].variable)
    assert cofactor_det(U).is_unit()
    assert cofactor_det(W).is_unit()
    n, m = len(D), len(D[0])
    diag = [D[i][i] for i in range(min(n, m))]
    for i in range(n):
        for j in range(m):
            if i != j:
                assert D[i][j].is_zero()
    for a, b in zip(diag, diag[1:]):
        if not a.is_zero():
            assert b.is_zero() or divides(a, b)
        else:
            assert b.is_zero()


def hyperbolic_form(prime: LaurentPoly):
    """A validated hyperbolic form on Q[t]/(p) (+) Q[t]/(p*), p* the
    normalized p(t^{-1}), with curves alpha and beta on the two generators
    and Bl(alpha, beta) = 1/p, shaped like the form of 9_46: (form, curve
    classes)."""
    first, second = prime.monic(), prime.conj().monic()
    module = AlexanderModule("t", 1, (
        Summand(first, first, 1, "alpha"), Summand(second, second, 1, "beta")))
    z = coset_reduce(LaurentPoly.one("t"), first)
    zero = FracCoset.zero("t")
    form = LinkingForm(module, ((zero, z), (z.conj(), zero)))
    form.validate()
    return form, {"alpha": module.generator(0), "beta": module.generator(1)}


@pytest.fixture
def rng():
    return random.Random(90125)
