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
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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


def _poly_sort_key(p: LaurentPoly):
    return (p.span, tuple(p.shift(-p.low).poly_coeffs()))


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
