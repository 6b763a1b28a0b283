"""Exact arithmetic in the Laurent polynomial ring Q[t^{±1}].

A Laurent polynomial is stored fraction-free: a row of integer numerators
over one positive integer denominator, the row running from the lowest
exponent up, trimmed of zeros at both ends, and reduced so that the gcd of
its entries and the denominator is 1; zero is the empty row over 1.  This
representation is unique, so equality is equality of the stored fields.
Coefficients are read back as `fractions.Fraction`s (`items`, `[e]`,
`leading`), and the ring operations, Horner evaluation and division with
remainder run on the integers.  The unit group of the ring is
{q*t^k : q in Q, q != 0}, and "equal up to units" always means equality
modulo exactly that set.  The canonical representative of a nonzero
polynomial is monic with lowest exponent 0.

Factorization into irreducibles over Q is one algorithm, Zassenhaus's, on
an integer core: each square-free part becomes one integer-primitive dense
coefficient list, which is factored modulo a small prime, Hensel-lifted and
recombined by exact integer division.  There is no degree limit; only the
number of subsets tried in recombination is bounded.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping

from . import RhosliceError


class PolyalgError(RhosliceError):
    """Domain errors: zero denominators, variable mismatch, the
    recombination bound of factoring."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings (a sign, ASCII digits and
    at most one '/') to an exact Fraction; `Fraction` alone would also
    expand '1e100000000', for minutes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not re.fullmatch(r"[+-]?\d+(/\d+)?", value,
                                                   re.ASCII):
        raise ValueError(f"not a 'p/q' rational: {value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


_set = object.__setattr__


def _trim(row):
    """(row without its zero ends, the number of zeros cut from its start)."""
    hi = len(row)
    while hi and not row[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not row[lo]:
        lo += 1
    return row[lo:hi], lo


def _primitive(row) -> list[int]:
    """An integer row trimmed of its zero ends and divided by its content,
    with a positive last entry; [] for zero."""
    row = _trim(row)[0]
    g = math.gcd(*row)
    if row and row[-1] < 0:
        g = -g
    return [c // g for c in row]


def _poly(row, start: int, den: int, variable: str) -> "LaurentPoly":
    """The polynomial sum_i row[i]/den * v^(start + i), for integers row[i]
    and a nonzero integer den, in the stored form."""
    row, lo = _trim(row)
    if not row:
        start, den = 0, 1
    elif den != 1:
        g = math.gcd(den, *row)
        if den < 0:
            g = -g
        if g != 1:
            row, den = [c // g for c in row], den // g
    p = object.__new__(LaurentPoly)
    _set(p, "row", tuple(row))
    _set(p, "start", start + lo)
    _set(p, "den", den)
    _set(p, "variable", variable)
    _set(p, "_hash", None)
    return p


class LaurentPoly:
    """An element of Q[v^{±1}] for a variable tag v (usually 's' or 't'):
    the integers `row` over the positive integer `den`, row[i] the
    numerator of the coefficient of v^(start + i)."""

    __slots__ = ("row", "start", "den", "variable", "_hash")

    def __new__(cls, coeffs: Mapping[int, object] | None = None,
                variable: str = "t"):
        terms = {int(e): as_fraction(c) for e, c in (coeffs or {}).items()}
        den = math.lcm(*(c.denominator for c in terms.values()))
        start = min(terms, default=0)
        row = [0] * (max(terms, default=start - 1) - start + 1)
        for e, c in terms.items():
            row[e - start] = c.numerator * (den // c.denominator)
        return _poly(row, start, den, variable)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return _poly, (self.row, self.start, self.den, self.variable)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variable: str = "t") -> "LaurentPoly":
        return _poly((), 0, 1, variable)

    @classmethod
    def one(cls, variable: str = "t") -> "LaurentPoly":
        return _poly((1,), 0, 1, variable)

    @classmethod
    def constant(cls, value, variable: str = "t") -> "LaurentPoly":
        return cls.monomial(0, value, variable)

    @classmethod
    def monomial(cls, exp: int, coeff=1, variable: str = "t") -> "LaurentPoly":
        q = as_fraction(coeff)
        return _poly((q.numerator,), exp, q.denominator, variable)

    @classmethod
    def var(cls, variable: str = "t") -> "LaurentPoly":
        return _poly((1,), 1, 1, variable)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, variable: str = "t") -> "LaurentPoly":
        """Build from a dense list [a0, a1, ...] of coefficients of v^0, v^1, ..."""
        return cls(dict(enumerate(coeffs)), variable)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.row

    def is_unit(self) -> bool:
        return len(self.row) == 1

    def is_one(self) -> bool:
        return self.row == (1,) and self.start == 0 and self.den == 1

    @property
    def degree(self) -> int:
        """Highest exponent; raises on zero."""
        if not self.row:
            raise PolyalgError("zero polynomial has no degree")
        return self.start + len(self.row) - 1

    @property
    def low(self) -> int:
        if not self.row:
            raise PolyalgError("zero polynomial has no lowest exponent")
        return self.start

    @property
    def span(self) -> int:
        """degree - low; the degree of the exponent-0 normalization."""
        return self.degree - self.low

    def leading(self) -> Fraction:
        return Fraction(self.row[self.span], self.den)

    def __getitem__(self, exp: int) -> Fraction:
        i = exp - self.start
        return Fraction(self.row[i] if 0 <= i < len(self.row) else 0, self.den)

    def items(self) -> list[tuple[int, Fraction]]:
        return [(self.start + i, Fraction(c, self.den))
                for i, c in enumerate(self.row) if c]

    # -- ring operations ---------------------------------------------------

    def _check_var(self, other: "LaurentPoly") -> None:
        if self.variable != other.variable:
            raise PolyalgError(
                f"variable mismatch: {self.variable!r} vs {other.variable!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.variable)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_var(other)
        if not (self.row and other.row):
            return self if other.is_zero() else other
        g = math.gcd(self.den, other.den)
        start = min(self.start, other.start)
        out = [0] * (max(self.degree, other.degree) - start + 1)
        for p, m in ((self, other.den // g), (other, self.den // g)):
            for i, c in enumerate(p.row, p.start - start):
                out[i] += c * m
        return _poly(out, start, self.den * other.den // g, self.variable)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.row], self.start, self.den, self.variable)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.variable)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.variable)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_var(other)
        if not (self.row and other.row):
            return LaurentPoly.zero(self.variable)
        out = [0] * (len(self.row) + len(other.row) - 1)
        for i, x in enumerate(self.row):
            for j, y in enumerate(other.row, i):
                out[j] += x * y
        return _poly(out, self.start + other.start, self.den * other.den,
                     self.variable)

    __rmul__ = __mul__

    def inverse_unit(self) -> "LaurentPoly":
        if not self.is_unit():
            raise PolyalgError("not a unit of the Laurent ring")
        return _poly((self.den,), -self.start, self.row[0], self.variable)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse_unit() ** (-n)
        result = LaurentPoly.one(self.variable)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return _poly(self.row, self.start + k, self.den, self.variable)

    def subs_power(self, c: int, variable: str | None = None) -> "LaurentPoly":
        """Substitute v -> w^c (the base-change map on coefficients)."""
        if c <= 0:
            raise PolyalgError("substitution exponent must be positive")
        out = [0] * (c * len(self.row) - c + 1)
        out[::c] = self.row
        return _poly(out, self.start * c, self.den, variable or self.variable)

    def conj(self) -> "LaurentPoly":
        """Substitute v -> v^{-1}."""
        return _poly(self.row[::-1], 1 - self.start - len(self.row), self.den,
                     self.variable)

    def rename(self, variable: str) -> "LaurentPoly":
        return _poly(self.row, self.start, self.den, variable)

    def evaluate(self, x) -> Fraction:
        """The value at x = p/q: Horner's rule in integers on the row from
        the top, homogeneous in p and q, times x^low."""
        x = as_fraction(x)
        if not self.row:
            return Fraction(0)
        if x == 0 and self.start < 0:
            raise PolyalgError("cannot evaluate negative exponents at 0")
        acc, qk = 0, 1
        for c in reversed(self.row):
            acc = acc * x.numerator + c * qk
            qk *= x.denominator
        return Fraction(acc * x.denominator, self.den * qk) * x ** self.start

    def derivative(self) -> "LaurentPoly":
        return _poly([c * e for e, c in enumerate(self.row, self.start)],
                     self.start - 1, self.den, self.variable)

    # -- normalization -----------------------------------------------------

    def unit_normal(self) -> tuple["LaurentPoly", Fraction, int]:
        """Split self = q * v^k * m with m monic of lowest exponent 0.

        Returns (m, q, k); for zero returns (0, 1, 0).
        """
        if not self.row:
            return self, Fraction(1), 0
        return (_poly(self.row, 0, self.row[-1], self.variable),
                self.leading(), self.start)

    def monic(self) -> "LaurentPoly":
        return self.unit_normal()[0]

    def poly_coeffs(self) -> list[Fraction]:
        """Dense coefficient list a0..adeg; requires lowest exponent >= 0."""
        if self.start < 0:
            raise PolyalgError("not an ordinary polynomial")
        return [self[e] for e in range(self.start + len(self.row))]

    # -- comparison / hashing / rendering ----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.variable)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.row == other.row and self.start == other.start
                and self.den == other.den and self.variable == other.variable)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.variable, self.start, self.den, self.row))
            _set(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.row)

    def __str__(self):
        if not self.row:
            return "0"
        v = self.variable
        parts = []
        for e, c in reversed(self.items()):
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sgn = "-" if c < 0 else ""
                pw = v if e == 1 else f"{v}^{e}"
                term = f"{sgn}{mag}{pw}"
            if parts:
                parts.append(f"- {term[1:]}" if term.startswith("-") else f"+ {term}")
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly('{self}')"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "coefficients": {str(e): str(c) for e, c in self.items()},
        }


def equal_up_to_unit(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Equality modulo the unit group {q*v^k}."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.monic() == b.monic()


# ---------------------------------------------------------------------------
# Euclidean arithmetic
# ---------------------------------------------------------------------------


def _prem(a, b) -> tuple[list[int], list[int], int]:
    """(quo, rem, s) with s*a = quo*b + rem and len(rem) = len(b) - 1, for
    dense integer rows a and b with b[-1] != 0.  Fraction-free division:
    before the step that clears the top entry c of the remainder, the
    remainder and quotient are scaled by lc(b)/gcd(c, lc(b)) only."""
    rem, db, s = list(a), len(b) - 1, 1
    quo = [0] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        c = rem[top]
        if c:
            g = math.gcd(c, b[-1])
            m = b[-1] // g
            if m != 1:
                rem, quo, s = [x * m for x in rem], [x * m for x in quo], s * m
            quo[top - db] = f = c // g
            for i, y in enumerate(b, top - db):
                rem[i] -= f * y
    return quo, rem[:db], s


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder for ordinary polynomials (lowest exponents >= 0)."""
    if b.is_zero():
        raise PolyalgError("division by zero polynomial")
    a._check_var(b)
    if a.start < 0 or b.start < 0:
        raise PolyalgError("divmod requires ordinary polynomials")
    quo, rem, s = _prem((0,) * a.start + a.row, (0,) * b.start + b.row)
    return (_poly([q * b.den for q in quo], 0, s * a.den, a.variable),
            _poly(rem, 0, s * a.den, a.variable))


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring; raises if b does not divide a."""
    if b.is_zero():
        raise PolyalgError("division by zero polynomial")
    a._check_var(b)
    quo, rem, s = _prem(a.row, b.row)
    if any(rem):
        raise PolyalgError(f"({a}) is not divisible by ({b})")
    return _poly([q * b.den for q in quo], a.start - b.start, s * a.den,
                 a.variable)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True iff b | a in Q[v^{±1}]."""
    if b.is_zero():
        return a.is_zero()
    return not any(_prem(a.row, b.row)[1])


def gcd_laurent(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic-normalized generator of the ideal (a, b); 1 when coprime.

    A primitive remainder sequence on the integer rows (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 6): each pseudo-remainder is
    divided by its content, and the last nonzero one is made monic."""
    a._check_var(b)
    x, y = _primitive(a.row), _primitive(b.row)
    while y:
        x, y = y, _primitive(_prem(x, y)[1])
    return _poly(x, 0, x[-1] if x else 1, a.variable)


def reduce_mod(a: LaurentPoly, m: LaurentPoly) -> LaurentPoly:
    """Reduce a modulo m into the window 0 <= exponents, deg < deg(m).

    Negative exponents are cleared from below: while the lowest exponent
    k is negative, subtracting a[k]/m(0) * v^k * m removes that term; the
    monic m has lowest exponent 0, so m(0) != 0.
    """
    mm = m.monic()
    if mm.is_zero():
        return a
    if mm.is_one():
        return LaurentPoly.zero(a.variable)
    while a and a.low < 0:
        a = a - mm.shift(a.low) * (a[a.low] / mm[0])
    return poly_divmod(a, mm)[1]


def inverse_mod(f: LaurentPoly, m: LaurentPoly) -> LaurentPoly:
    """Inverse of f modulo m; raises if gcd(f, m) != 1.  Euclid carries
    only the cofactor u of f, with u*f = r (mod m) for each remainder r
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 3)."""
    mm = m.monic()
    r0, r1 = mm, reduce_mod(f, mm)
    u0, u1 = LaurentPoly.zero(mm.variable), LaurentPoly.one(mm.variable)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1, u0, u1 = r1, r, u1, u0 - q * u1
    if r0.degree:  # the gcd is r0, made monic
        raise PolyalgError(f"({f}) is not invertible modulo ({m})")
    return poly_divmod(u0 * (1 / r0.leading()), mm)[1]


# ---------------------------------------------------------------------------
# Factorization over Q
# ---------------------------------------------------------------------------

# Subsets of the modular factors that recombination tries, exponentially
# many in their number; the 16 of the degree-32 minimal polynomial of
# sqrt(2) + sqrt(3) + sqrt(5) + sqrt(7) + sqrt(11) need 39,202.
FACTOR_RECOMBINATION_BOUND = 2 ** 16


def _nth_root_exact(n: int, r: int) -> int | None:
    """Integer r-th root of n >= 0 if exact, else None.

    Integer Newton steps from above converge to the floor of the root at
    any size; no float is involved."""
    if n <= 0:
        return None if n else 0
    if r == 2:
        root = math.isqrt(n)
    else:
        root = 1 << -(-n.bit_length() // r)  # at least the root
        while True:
            step = ((r - 1) * root + n // root ** (r - 1)) // r
            if step >= root:
                break
            root = step
    return root if root ** r == n else None


def _rational_power_root(q: Fraction, r: int) -> Fraction | None:
    """w with w^r = q, if one exists in Q."""
    if q < 0:
        if r % 2 == 0:
            return None
        w = _rational_power_root(-q, r)
        return -w if w is not None else None
    num = _nth_root_exact(q.numerator, r)
    den = _nth_root_exact(q.denominator, r)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def capelli_certified(prime: LaurentPoly) -> bool:
    """True if prime(v^c) is irreducible over Q for every c >= 1, by
    Capelli's theorem for a linear prime v - r: v^c - r is irreducible for
    every c exactly when r is not a p-th power in Q for any prime p and r is
    not in -4Q^4 (Schinzel, Polynomials with Special Regard to
    Reducibility, 2000).  False for r = ±1 and for every nonlinear prime,
    where the check decides nothing.

    A k-th power root of r = num/den (lowest terms, not ±1) has k at most
    the bit length of |num| or den, so finitely many k are tried."""
    m = prime.monic()
    if m.span != 1:
        return False
    r = -m[0]
    num, den = abs(r.numerator), r.denominator
    if num == den == 1:
        return False
    for k in range(2, max(num.bit_length(), den.bit_length()) + 1):
        if _rational_power_root(r, k) is not None:
            return False
    return r > 0 or _rational_power_root(-r / 4, 4) is None


def _int_div_exact(a: list[int], b) -> list[int] | None:
    """Quotient of the dense integer polynomials a / b, for lc(b) > 0, if it
    is an integer polynomial: the pseudo-division needed no scaling and left
    no remainder; else None.  For primitive b this is divisibility over Q as
    well (Gauss's lemma)."""
    quo, rem, s = _prem(a, b)
    return quo if s == 1 and not any(rem) else None


def _newton_interpolate(xs: list[int], ys) -> list[int] | None:
    """Dense integer coefficients (length len(xs)) of the polynomial of
    degree < len(xs) through the points (xs[i], ys[i]), or None if it does
    not have integer coefficients.

    The nodes are distinct integers.  An integer polynomial has integer
    divided differences at integer nodes, so the divided-difference table
    stays in the integers, and an inexact division proves the interpolant
    is not an integer polynomial."""
    n = len(xs)
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - j])
            if r:
                return None
            dd[i] = c
    # Horner on the Newton form: p <- p * (v - xs[k]) + dd[k]
    coeffs = [dd[-1]]
    for k in range(n - 2, -1, -1):
        x = xs[k]
        coeffs = [dd[k] - x * coeffs[0]] + [
            a - x * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    return coeffs


def _squarefree_parts(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Square-free decomposition p = prod f_i^i of a monic exp-0 polynomial.

    Returns [(f_i, i)] for the nonconstant f_i.
    """
    out = []
    g = gcd_laurent(p, p.derivative())
    w = div_exact(p, g).monic()  # radical of p
    i = 1
    while w.span > 0:
        y = gcd_laurent(w, g)
        piece = div_exact(w, y).monic()
        if piece.span > 0:
            out.append((piece, i))
        w = y
        g = div_exact(g, y).monic() if not g.is_zero() else g
        i += 1
    return out


def _mod_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod_sub(a: list[int], b: list[int], m: int) -> list[int]:
    """a - b modulo m, for dense coefficient lists trimmed of leading zeros
    ([] is zero), as are all results of the _mod helpers."""
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _mod_trim([c % m for c in out])


def _mod_mul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _mod_trim([c % m for c in out])


def _mod_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) is a unit mod m."""
    inv = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        c = quo[top - db] = rem[top] * inv % m
        if c:
            for i, bc in enumerate(b):
                rem[top - db + i] = (rem[top - db + i] - c * bc) % m
    return _mod_trim(quo), _mod_trim(rem[:db])


def _mod_gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(g, u): the monic gcd g of a and b != 0 modulo the prime p, and u
    with u*a = g modulo b."""
    r0, r1, u0, u1 = b, _mod_divmod(a, b, p)[1], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1, u0, u1 = r1, r, u1, _mod_sub(u0, _mod_mul(q, u1, p), p)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in u0]


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors modulo the prime p of f, which is
    monic and square-free modulo p.  The u with u^p = u in F_p[v]/(f) form
    a space with one dimension per factor, and the gcds of f with such u
    minus constants separate the factors (Berlekamp)."""
    n = len(f) - 1
    frobenius = [1]  # v^p mod f
    for _ in range(p):
        frobenius = _mod_divmod([0] + frobenius, f, p)[1]
    # row reduce the transpose of Q - I, where row i of Q is v^(ip) mod f
    rows, power = [[0] * n for _ in range(n)], [1]
    for i in range(n):
        for j, c in enumerate(power):
            rows[j][i] = c
        rows[i][i] -= 1
        power = _mod_divmod(_mod_mul(power, frobenius, p), f, p)[1]
    pivots: list[int] = []
    for col in range(n):
        r = next((i for i in range(len(pivots), n) if rows[i][col] % p), None)
        if r is not None:
            inv = pow(rows[r][col], -1, p)
            top = rows[r] = [x * inv % p for x in rows[r]]
            rows[r], rows[len(pivots)] = rows[len(pivots)], top
            for i, row in enumerate(rows):
                if row is not top and row[col] % p:
                    rows[i] = [(x - row[col] * y) % p for x, y in zip(row, top)]
            pivots.append(col)
    fixed = [_mod_trim([1 if j == free else -rows[pivots.index(j)][free] % p
                        if j in pivots else 0 for j in range(n)])
             for free in range(n) if free not in pivots]
    factors = [f]
    for u in fixed:
        if len(factors) == len(fixed):
            break
        split = []
        for g in factors:
            for s in range(p):
                if len(g) <= 2:
                    break
                h = _mod_gcdex(_mod_sub(u, [s], p), g, p)[0]
                if 1 < len(h) < len(g):
                    split.append(h)
                    g = _mod_divmod(g, h, p)[0]
            split.append(g)
        factors = split
    return factors


def _hensel_lift(f: list[int], gs: list[list[int]], p: int,
                 modulus: int) -> list[list[int]]:
    """Lift pairwise coprime monic gs with lc(f)*prod(gs) = f modulo p to
    monic factors with the same property modulo `modulus`, a power of p.

    Quadratic multifactor lifting (von zur Gathen and Gerhard, ch. 15): the
    inverses s_i of the cofactors prod(gs)/g_i modulo g_i, for which
    sum s_i*prod(gs)/g_i = 1, are lifted alongside by Newton steps."""
    m = p
    product = reduce(lambda a, b: _mod_mul(a, b, m), gs, [1])
    ss = [_mod_gcdex(_mod_divmod(product, g, p)[0], g, p)[1] for g in gs]
    while m < modulus:
        m = min(m * m, modulus)
        inv = pow(f[-1], -1, m)
        product = reduce(lambda a, b: _mod_mul(a, b, m), gs, [1])
        excess = _mod_sub(product, [c * inv for c in f], m)
        gs = [_mod_sub(g, _mod_divmod(_mod_mul(s, excess, m), g, m)[1], m)
              for g, s in zip(gs, ss)]
        if m < modulus:
            product = reduce(lambda a, b: _mod_mul(a, b, m), gs, [1])
            for i, (g, s) in enumerate(zip(gs, ss)):
                error = _mod_mul(s, _mod_divmod(product, g, m)[0], m)
                ss[i] = _mod_divmod(
                    _mod_mul(s, _mod_sub([2], error, m), m), g, m)[1]
    return gs


def _factor_squarefree(p: LaurentPoly) -> list[LaurentPoly]:
    """Irreducible monic factors of a monic square-free exp-0 polynomial.

    Zassenhaus's algorithm on the primitive integer coefficient list f (von
    zur Gathen and Gerhard, Modern Computer Algebra, chs. 14-15): factor f
    modulo the least prime l that divides neither lc(f) nor disc(f), the
    first whose image is square-free (Berlekamp); Hensel-lift the factors
    modulo l^k > 2*lc(f)*B, with B = 2^deg(f)*|f|_2 Mignotte's bound on the
    coefficients of a factor; then try subsets of the lifted factors,
    smallest first: lc(f) times their product, in symmetric residues and
    made primitive, is a factor if it divides f exactly.  A candidate whose
    constant term does not divide lc(f)*f(0) is skipped undivided.  The
    subsets tried are bounded by FACTOR_RECOMBINATION_BOUND, checked before
    the subsets of each size are started."""
    f = _primitive(p.row)
    ell = 1
    while True:
        ell += 1
        if f[-1] % ell and all(ell % q for q in range(2, math.isqrt(ell) + 1)):
            inv = pow(f[-1], -1, ell)
            image = [c * inv % ell for c in f]
            deriv = _mod_trim([k * c % ell for k, c in enumerate(image)][1:])
            if len(_mod_gcdex(deriv, image, ell)[0]) == 1:
                break
    lifted = _berlekamp(image, ell)
    if len(lifted) == 1:
        return [p]
    bound = (f[-1] << len(f)) * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = ell
    while modulus <= bound:
        modulus *= ell
    lifted = _hensel_lift(f, lifted, ell, modulus)
    factors: list[list[int]] = []
    tried, size = 0, 1
    while 2 * size <= len(lifted):
        if tried + math.comb(len(lifted), size) > FACTOR_RECOMBINATION_BOUND:
            raise PolyalgError(
                f"factorization bound: recombining {len(lifted)} modular "
                f"factors of a degree-{len(f) - 1} polynomial would exceed "
                f"FACTOR_RECOMBINATION_BOUND = {FACTOR_RECOMBINATION_BOUND} "
                f"subset trials ({tried} tried before size {size})")
        for subset in itertools.combinations(range(len(lifted)), size):
            tried += 1
            const = f[-1] * math.prod(lifted[i][0] for i in subset) % modulus
            const -= modulus if 2 * const > modulus else 0
            if const == 0 or f[-1] * f[0] % const:
                continue
            cand = reduce(lambda a, i: _mod_mul(a, lifted[i], modulus),
                          subset, [f[-1]])
            cand = [c - modulus if 2 * c > modulus else c for c in cand]
            content = math.gcd(*cand)
            cand = [c // content for c in cand]
            quotient = _int_div_exact(f, cand)
            if quotient is not None:
                factors.append(cand)
                f = quotient
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return [_poly(g, 0, g[-1], p.variable) for g in factors + [f]]


def _poly_sort_key(p: LaurentPoly):
    return (p.span, tuple(p.shift(-p.low).poly_coeffs()))


def factor_laurent(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Factor into monic irreducibles over Q, up to a unit.

    Returns [(irreducible, multiplicity), ...] sorted by (degree,
    coefficient tuple); the product of the factors equals p up to a unit
    q*v^k.  Units factor as [].
    """
    if p.is_zero():
        raise PolyalgError("cannot factor the zero polynomial")
    m = p.monic()
    counts: dict[LaurentPoly, int] = {}
    for sqfree, mult in _squarefree_parts(m):
        for f in _factor_squarefree(sqfree):
            counts[f] = counts.get(f, 0) + mult
    return sorted(counts.items(), key=lambda kv: _poly_sort_key(kv[0]))


@lru_cache(maxsize=None)
def _cyclotomic_int(n: int) -> tuple[int, ...]:
    """Dense integer coefficients of the n-th cyclotomic polynomial: v^n - 1
    divided exactly by the cyclotomics of the proper divisors of n."""
    rem = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            rem = _int_div_exact(rem, _cyclotomic_int(d))
    return tuple(rem)


def cyclotomic(n: int, variable: str = "t") -> LaurentPoly:
    """The n-th cyclotomic polynomial."""
    if n < 1:
        raise PolyalgError("cyclotomic index must be positive")
    return LaurentPoly.from_coeffs(_cyclotomic_int(n), variable)
