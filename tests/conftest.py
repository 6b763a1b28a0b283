import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from rhoslice.almodule import AlexanderModule, FracCoset, Summand, coset_reduce
from rhoslice.blanchfield import LinkingForm
from rhoslice.linalg import PolyMatrix, poly_mat_apply
from rhoslice.obstruction import RhoExpr
from rhoslice.polyalg import (
    LaurentPoly,
    div_exact,
    divides,
)
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


def rho_of(const=0, **symbols) -> RhoExpr:
    """The exact expression const + sum of coefficient * symbol."""
    c = Fraction(const)
    return RhoExpr(c, c, tuple(sorted((k, Fraction(v))
                                      for k, v in symbols.items() if v != 0)))


def prime_family(k: int, beta_sign: int = 1) -> dict:
    """A knot document of k single-copy 9_46 members over the first 2k
    primes p_0 < p_1 < ...: member i has exact companions alpha = 1/p_2i
    and beta = beta_sign/p_(2i+1).  No count vector's sum vanishes, and
    with beta_sign = 1 no class has a transposition certificate, so each
    class is enumerated on its 2^(2k) - 1 count vectors."""
    primes = list(itertools.islice(
        (p for p in itertools.count(2) if all(p % q for q in range(2, p))),
        2 * k))
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    return {"schema": "rhoslice.knot/1",
            "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                        "curves": curves},
            "knots": {f"K{i}": {"companions": {
                "alpha": {"rho0": f"1/{primes[2 * i]}"},
                "beta": {"rho0": f"{beta_sign}/{primes[2 * i + 1]}"}}}
                for i in range(k)},
            "family": [{"knot": f"K{i}", "multiplicity": 1}
                       for i in range(k)]}


def verifiably_nonzero(expr: RhoExpr) -> bool:
    """Nonzero under the hypothesis that the symbols together with 1 are
    linearly independent over Q, or by exact/interval arithmetic: the test
    that `obstruction._sweep_class` makes on its integer vectors."""
    return (any(v != 0 for _, v in expr.coeffs)
            or expr.const_lo > 0 or expr.const_hi < 0)


# The Fraction-dict Laurent polynomial: the representation `LaurentPoly`
# had before it stored integer rows over one denominator, with the Euclid
# over Q that `gcd_laurent` ran then.  An independent reference for the
# integer arithmetic.


class FractionPoly:
    """An element of Q[v^{±1}] as a map from exponents to nonzero
    Fractions."""

    def __init__(self, coeffs=None, variable: str = "t"):
        self.coeffs = {int(e): Fraction(c) for e, c in (coeffs or {}).items()
                       if Fraction(c) != 0}
        self.variable = variable

    @classmethod
    def of(cls, p: LaurentPoly) -> "FractionPoly":
        return cls(dict(p.items()), p.variable)

    def same(self, p: LaurentPoly) -> bool:
        """The oracle and `p` hold the same polynomial."""
        return (self.variable == p.variable
                and sorted(self.coeffs.items()) == p.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return max(self.coeffs)

    @property
    def low(self) -> int:
        return min(self.coeffs)

    def leading(self) -> Fraction:
        return self.coeffs[self.degree]

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FractionPoly(out, self.variable)

    def __neg__(self):
        return FractionPoly({e: -c for e, c in self.coeffs.items()},
                            self.variable)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPoly({0: other}, self.variable)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return FractionPoly(out, self.variable)

    def shift(self, k: int) -> "FractionPoly":
        return FractionPoly({e + k: c for e, c in self.coeffs.items()},
                            self.variable)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroDivisionError("negative exponent at 0")
        return sum((c * x ** e for e, c in self.coeffs.items()), Fraction(0))

    def unit_normal(self):
        if not self.coeffs:
            return self, Fraction(1), 0
        k, q = self.low, self.leading()
        return (FractionPoly({e - k: c / q for e, c in self.coeffs.items()},
                             self.variable), q, k)

    def monic(self) -> "FractionPoly":
        return self.unit_normal()[0]

    def __str__(self):
        if not self.coeffs:
            return "0"
        v = self.variable
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sgn = "-" if c < 0 else ""
                pw = v if e == 1 else f"{v}^{e}"
                term = f"{sgn}{mag}{pw}"
            if parts:
                parts.append(f"- {term[1:]}" if term.startswith("-")
                             else f"+ {term}")
            else:
                parts.append(term)
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"variable": self.variable,
                "coefficients": {str(e): str(c)
                                 for e, c in sorted(self.coeffs.items())}}


def fraction_divmod(a: FractionPoly, b: FractionPoly):
    """Division with remainder over Q of ordinary polynomials, one Fraction
    quotient term at a time."""
    rem, quo = dict(a.coeffs), {}
    db, lb = b.degree, b.leading()
    while rem and max(rem) >= db:
        e = max(rem)
        q = quo[e - db] = rem[e] / lb
        for eb, cb in b.coeffs.items():
            val = rem.get(e - db + eb, Fraction(0)) - q * cb
            if val:
                rem[e - db + eb] = val
            else:
                rem.pop(e - db + eb, None)
    return FractionPoly(quo, a.variable), FractionPoly(rem, a.variable)


def fraction_gcd(a: FractionPoly, b: FractionPoly) -> FractionPoly:
    """The monic gcd by Euclid over Q on the exponent-0 normalizations."""
    x, y = a.monic(), b.monic()
    while not y.is_zero():
        x, y = y, fraction_divmod(x, y)[1]
    return x.monic()


def fraction_reduce_mod(a: FractionPoly, m: FractionPoly) -> FractionPoly:
    """a modulo m in the window 0 <= exponents < span(m): negative exponents
    cleared from below with the monic m, then division with remainder."""
    mm = m.monic()
    while a.coeffs and a.low < 0:
        a = a - mm.shift(a.low) * (a.coeffs[a.low] / mm.coeffs[0])
    return fraction_divmod(a, mm)[1]


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


def snf_is_valid(A, U, D, W, dec=None):
    """U*A*W = D, det U and det W units, D diagonal with d_1 | d_2 | ...;
    with `dec`, the `_decompose` of the presentation A^T, also U*g = c*e_i
    for each default generator g (label g1, g2, ...) split off the non-unit
    d_i, c = d_i / ann its CRT cofactor."""
    assert poly_mat_mul(poly_mat_mul(U, A), W) == D
    assert cofactor_det(U).is_unit()
    assert cofactor_det(W).is_unit()
    n, m = len(D), len(D[0])
    diag = [D[i][i] for i in range(min(n, m))]
    for i in range(n):
        for j in range(m):
            if i != j:
                assert D[i][j].is_zero()
    assert all(d == d.monic() for d in diag)
    for a, b in zip(diag, diag[1:]):
        if not a.is_zero():
            assert b.is_zero() or divides(a, b)
        else:
            assert b.is_zero()
    if dec is None:
        return
    rows = [i for i, d in enumerate(diag) if not d.is_unit()]
    zero = LaurentPoly.zero(A[0][0].variable)
    for k, s in enumerate(dec.module.summands):
        if s.label != f"g{k + 1}":
            continue
        i = rows[dec.snf_index[k]]
        cofactor = div_exact(diag[i], s.annihilator)
        assert poly_mat_apply(U, list(dec.gen_coords[k])) == [
            cofactor if r == i else zero for r in range(n)]


def pairwise_inverse_form(U, D, W, x, y) -> FracCoset:
    """x^T (vV - V^T)^{-1} y from the Smith form U*A*W = D of
    A = (vV - V^T)^T: the coset sum_i (Ux)_i (W^T y)_i / d_i over the last
    invariant factor, U and W^T applied afresh for each pair and every d_i
    summed, units included."""
    Wt = [list(col) for col in zip(*W)]
    last = D[-1][-1]
    acc = LaurentPoly.zero(last.variable)
    for i, (a, b) in enumerate(zip(poly_mat_apply(U, x), poly_mat_apply(Wt, y))):
        acc = acc + a * b * div_exact(last, D[i][i])
    return FracCoset(acc, last)


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
