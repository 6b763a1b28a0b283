"""Levine-Tristram signatures and the signature integral, exactly.

Circle points are parametrized as w(u) = (1 - iu)/(1 + iu) for rational u
(with u = None standing for w = -1).  At such a point the hermitian form
(1-w)V + (1-conj(w))V^T is a real multiple of uS + iK (S = V + V^T,
K = V - V^T), so every signature evaluation is the inertia of one integer
symmetric matrix, counted by exact congruence reduction, never from
numerical eigenvalues.

Jump locations are the unit-circle roots of the Alexander polynomial.  With
x = w + w^{-1} they become the real roots in (-2, 2) of a rational
polynomial; those are isolated by Sturm sequences of LaurentPoly
remainders (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
ch. 2), and roots of cyclotomic factors are recognized exactly as angles
k/n (against the minimal polynomials of 2cos(2*pi/n) for every n that
the factor's degree admits).  Jump sizes are differences of arc values
sampled at rational parameters on both sides, never derivative heuristics.

The signature integral over the circle (normalized to length one) is a
finite sum of jump * arc-length terms: an exact rational when every jump
angle is rational, otherwise a certified interval.  Each irrational angle
is enclosed in a dyadic cell: a guess (float arc cosine, then Newton steps)
picks the cell, and certified comparisons at its two ends confirm it.  The
comparisons use interval cosines computed in integer arithmetic alone (pi by
Machin's formula, the Taylor series with its tail bounded), so the package
needs only the standard library; Niven's theorem guarantees every
comparison resolves.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import RhosliceError
from .factor import cyclotomic, factor_laurent
from .polyalg import LaurentPoly, as_fraction, poly_divmod
from .seifert import RhoExpr, SeifertMatrix, alexander_polynomial

PRECISION_ENV = "RHOSLICE_PRECISION"
_DEFAULT_BUDGET = Fraction(1, 10 ** 6)


class SignatureError(RhosliceError):
    pass


def precision_budget() -> Fraction:
    """Interval width bound for the signature integral, from the environment
    (default 1/10^6)."""
    raw = os.environ.get(PRECISION_ENV)
    if not raw:
        return _DEFAULT_BUDGET
    try:
        budget = as_fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SignatureError(f"bad {PRECISION_ENV} value {raw!r}") from exc
    if budget <= 0:
        raise SignatureError(f"{PRECISION_ENV} must be positive")
    return budget


# ---------------------------------------------------------------------------
# Exact symmetric inertia and the signature at a circle point
# ---------------------------------------------------------------------------


def symmetric_inertia(M: list[list[int]]) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of an integer symmetric matrix by exact
    congruence reduction (Sylvester's law of inertia).

    The reduction is fraction-free (Bareiss): after each pivot the active
    block is d times the Schur complement, d the last pivot, so the next
    pivot p stands for p/d, and the entries are minors of the matrix, which
    makes every division by d exact.  The pair step, a congruence on the active indices
    alone, keeps this, as it commutes with the eliminations before it.
    """
    A = [list(row) for row in M]
    active = list(range(len(A)))
    pos = neg = 0
    d = 1
    while active:
        k = next((i for i in active if A[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and A[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # congruence with T = I + E_ij makes A[i][i] = 2 A[i][j] != 0
            for m in active:
                A[i][m] += A[j][m]
            for m in active:
                A[m][i] += A[m][j]
            continue
        p = A[k][k]
        if (p > 0) == (d > 0):
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            for j in active:
                A[i][j] = (p * A[i][j] - A[i][k] * A[k][j]) // d
        d = p
    return pos, neg, len(active)


def lt_signature_at(V: SeifertMatrix, u: Fraction | None) -> int:
    """Signature of (1-w)V + (1-conj(w))V^T at w = (1 - iu)/(1 + iu),
    exactly; u = None stands for w = -1.

    u = 0 (w = 1) is rejected, as is any w where the Alexander polynomial
    vanishes (a jump point).  For |w| = 1, w != 1 the matrix is
    (1-w) w^{-1} (wV - V^T), so it is singular exactly at those w.

    With S = V + V^T, K = V - V^T and u = p/q the matrix is 2S at w = -1
    and otherwise 2u/(q(1 + u^2)) times pS + iqK, a multiple with the sign
    of p; a hermitian A + iB has half the inertia of the real symmetric
    [[A, -B], [B, A]].
    """
    if u is not None and Fraction(u) == 0:
        raise SignatureError("w = 1 is excluded")
    n = V.dim
    S = [[V[i, j] + V[j, i] for j in range(n)] for i in range(n)]
    if u is None:
        M, scale = S, 1
    else:
        p, q = Fraction(u).as_integer_ratio()
        pS = [[p * x for x in row] for row in S]
        qK = [[q * (V[i, j] - V[j, i]) for j in range(n)] for i in range(n)]
        M = ([a + [-x for x in b] for a, b in zip(pS, qK)]
             + [b + a for a, b in zip(pS, qK)])
        scale = 2 if p > 0 else -2
    pos, negc, nil = symmetric_inertia(M)
    if nil:
        raise SignatureError(
            "w is a root of the Alexander polynomial (jump point)")
    return (pos - negc) // scale


# ---------------------------------------------------------------------------
# Sturm isolation of the real roots of dense rational polynomials
# ---------------------------------------------------------------------------


def sturm_chain(p: LaurentPoly) -> list[LaurentPoly]:
    """p, p' and the negated remainders of Euclid's algorithm on them, for
    an ordinary polynomial p, down to the last nonzero one."""
    chain = [p, p.derivative()]
    while chain[-1] and chain[-1].degree > 0:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    if not chain[-1]:
        chain.pop()
    return chain


def _sign_changes(vals: list[Fraction]) -> int:
    signs = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    at_lo = _sign_changes([q.evaluate(lo) for q in chain])
    at_hi = _sign_changes([q.evaluate(hi) for q in chain])
    return at_lo - at_hi


def isolate_roots(p: LaurentPoly, lo: Fraction, hi: Fraction):
    """Disjoint isolating intervals for the distinct roots of a square-free
    ordinary polynomial p in (lo, hi].

    A root found at the upper end of a bisection interval, and the root of
    a linear p, come back as point intervals (r, r); every other interval
    (a, b) holds its root strictly inside, and of its ends only a = lo may
    be a root.
    """
    if p.degree == 1:
        r = -p[0] / p[1]
        return [(r, r)] if lo < r <= hi else []
    chain = sturm_chain(p)
    out = []

    def split_point(a, b):
        # a rational in (a, b) that is not a root; p has at most deg roots,
        # so one of deg+1 distinct candidates works
        for k in range(2, p.degree + 4):
            cand = a + (b - a) / k
            if p.evaluate(cand) != 0:
                return cand
        raise SignatureError("could not find a non-root split point")

    def rec(a, b):
        n = sturm_count(chain, a, b)
        if n == 0:
            return
        if n == 1:
            out.append((b, b) if p.evaluate(b) == 0 else (a, b))
            return
        mid = split_point(a, b)
        rec(a, mid)
        rec(mid, b)

    rec(Fraction(lo), Fraction(hi))
    return sorted(out)


def refine_interval(p: LaurentPoly, interval, width: Fraction):
    """Shrink an isolating interval of p below `width` by Sturm bisection."""
    a, b = interval
    if a == b:
        return interval
    chain = sturm_chain(p)
    while b - a > width:
        mid = (a + b) / 2
        if p.evaluate(mid) == 0:
            return (mid, mid)
        if sturm_count(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


# ---------------------------------------------------------------------------
# The symmetrized variable x = w + 1/w
# ---------------------------------------------------------------------------


def circle_polynomial(delta: LaurentPoly) -> LaurentPoly:
    """q with q(w + w^{-1}) = delta(w)/w^m for a palindromic delta of even
    span 2m; unit-circle roots of delta away from ±1 correspond 2:1 to roots
    of q in (-2, 2)."""
    coeffs = delta.shift(-delta.low).poly_coeffs()
    deg = len(coeffs) - 1
    if deg % 2 != 0 or any(coeffs[k] != coeffs[deg - k] for k in range(deg // 2 + 1)):
        raise SignatureError("expected an even-degree palindromic polynomial")
    m = deg // 2
    var = delta.variable
    # C_k(x) = w^k + w^{-k}: C_0 = 2, C_1 = x, C_{k+1} = x C_k - C_{k-1}
    x = LaurentPoly.var(var)
    c_prev = LaurentPoly.constant(2, var)
    c_cur = x
    q = LaurentPoly.constant(coeffs[m], var)
    for k in range(1, m + 1):
        q = q + coeffs[m + k] * c_cur
        c_prev, c_cur = c_cur, x * c_cur - c_prev
    return q


@lru_cache(maxsize=None)
def cos_minimal_polynomial(n: int) -> LaurentPoly:
    """Minimal polynomial of 2cos(2*pi/n) over Q (monic, in variable 't').

    This is an ordinary polynomial (x = 0 is a meaningful root for n = 4),
    so normalization divides by the leading coefficient without shifting.
    """
    if n == 1:
        return LaurentPoly({1: 1, 0: -2})
    if n == 2:
        return LaurentPoly({1: 1, 0: 2})
    q = circle_polynomial(cyclotomic(n))
    return q * (Fraction(1) / q.leading())


def _euler_phi(n: int) -> int:
    """phi(n) = phi(n/p) (p if p^2 | n else p - 1), p the least prime of n."""
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
    return 1 if n == 1 else _euler_phi(n // p) * (p - (n % (p * p) > 0))


def _cyclotomic_index(psi: LaurentPoly) -> int | None:
    """The n >= 3 whose cos_minimal_polynomial(n) is the monic form of psi,
    else None.  Only the n with phi(n) = 2 deg psi can match, and as
    phi(n) >= sqrt(n/2), those n are at most 8 (deg psi)^2."""
    target = psi.monic()
    for n in range(3, 8 * target.span ** 2 + 1):
        if _euler_phi(n) == 2 * target.span and cos_minimal_polynomial(n) == target:
            return n
    return None


# ---------------------------------------------------------------------------
# Signature function
# ---------------------------------------------------------------------------


class CircleRoot(NamedTuple):
    """A jump location: theta in (0, 1/2) normalized-circle units.

    `angle` is the exact rational theta = k/n for recognized cyclotomic
    roots, else None; `x_interval` is an exact isolating interval (point
    interval for exact-x roots) for x = 2cos(2*pi*theta); `factor` the
    monic irreducible factor, of lowest exponent 0, of the circle polynomial
    whose root this is; `jump` the change of the signature as theta crosses
    the location upward."""

    angle: Fraction | None
    x_interval: tuple[Fraction, Fraction]
    factor: LaurentPoly
    jump: int


class _SignatureFunctionFields(NamedTuple):
    roots: tuple[CircleRoot, ...]
    arc_values: tuple[int, ...]


class SignatureFunction(_SignatureFunctionFields):
    """Piecewise-constant signature over theta in (0, 1), symmetric under
    theta -> 1 - theta, zero near 0 and 1.

    `roots` are the jumps in (0, 1/2) sorted by increasing theta;
    `arc_values` are the values on the theta-arcs (0, t_1), (t_1, t_2), ...,
    (t_r, 1/2], one more entry than roots."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.arc_values) != len(self.roots) + 1:
            raise SignatureError("arc/jump count mismatch")
        if self.arc_values and self.arc_values[0] != 0:
            raise SignatureError("signature must vanish near w = 1")
        if any(v % 2 for v in self.arc_values):
            raise SignatureError("signature values must be even")
        return self

    def to_json(self) -> dict:
        jump_rows = []
        for r in self.roots:
            row = {"jump": r.jump}
            if r.angle is not None:
                row["theta"] = str(r.angle)
            else:
                row["x_interval"] = [str(r.x_interval[0]), str(r.x_interval[1])]
            jump_rows.append(row)
        return {"jumps": jump_rows, "arc_values": list(self.arc_values)}


# 2cos(2*pi*t) is rational for rational t in (0, 1/2) only at these angles
# (Niven), which makes the certified comparison below terminate.
_NIVEN_X = {Fraction(1, 6): Fraction(1), Fraction(1, 4): Fraction(0),
            Fraction(1, 3): Fraction(-1)}

# Fixed-point bits carried beyond the requested width, to absorb the
# rounding of the series terms and of pi.
_GUARD = 16


# one entry per precision of _cos_enclosure, of which there are a few dozen
@lru_cache(maxsize=64)
def _pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo <= pi * 2^bits <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""

    def atan_inv(n: int) -> tuple[int, int]:
        # term k is floor(2^bits / ((2k+1) n^(2k+1))) + [0, 1); the series
        # alternates with decreasing terms, so the dropped tail is below one
        # unit once 2^bits / n^(2k+1) is
        lo = hi = 0
        power = (1 << bits) // n
        k = 0
        while power:
            q = power // (2 * k + 1)
            if k % 2:
                lo, hi = lo - q - 1, hi - q
            else:
                lo, hi = lo + q, hi + q + 1
            power //= n * n
            k += 1
        return lo - 1, hi + 1

    lo5, hi5 = atan_inv(5)
    lo239, hi239 = atan_inv(239)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _cos_fixed(x: int, bits: int) -> tuple[int, int]:
    """Integers lo <= cos(x / 2^bits) * 2^bits <= hi for 0 <= x < 3 * 2^bits,
    by the Taylor series.  Terms k >= 1 decrease there, so the alternating
    tail after the last term kept is at most the first term dropped."""
    one = 1 << bits
    y2_lo = (x * x) >> bits
    y2_hi = -((-x * x) >> bits)
    stop = 1 << (_GUARD - 4)
    t_lo = t_hi = lo = hi = one
    k = 1
    while True:
        div = (2 * k - 1) * (2 * k) << bits
        t_lo = t_lo * y2_lo // div
        t_hi = -(-t_hi * y2_hi // div)
        if t_hi <= stop:
            return lo - t_hi, hi + t_hi
        if k % 2:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
        k += 1


def _cos_enclosure(theta: Fraction, extra: int = 0) -> tuple[Fraction, Fraction]:
    """Certified enclosure of 2cos(2*pi*theta): exact dyadic bounds of width
    below 2^-(78 + 20*extra), in integer arithmetic."""
    theta = Fraction(theta) % 1
    if theta > Fraction(1, 2):
        theta = 1 - theta
    sign = 1
    if theta > Fraction(1, 4):
        theta, sign = Fraction(1, 2) - theta, -1
    # 2*pi*theta now lies in [0, pi/2], where cos decreases and is
    # 1-Lipschitz, so its value at the lower end of the argument's
    # enclosure bounds it from above and, less the enclosure's width, below
    bits = 80 + 20 * extra + _GUARD
    pi_lo, pi_hi = _pi_bounds(bits)
    a, b = theta.numerator, theta.denominator
    x_lo = 2 * a * pi_lo // b
    x_hi = -(-2 * a * pi_hi // b)
    c_lo, c_hi = _cos_fixed(x_lo, bits)
    c_lo -= x_hi - x_lo
    lo, hi = Fraction(2 * c_lo, 1 << bits), Fraction(2 * c_hi, 1 << bits)
    return (lo, hi) if sign > 0 else (-hi, -lo)


def _cos_cmp(t: Fraction, x: Fraction) -> int:
    """Certified sign of 2cos(2*pi*t) - x for t in (0, 1/2), rational x."""
    exact = _NIVEN_X.get(t)
    if exact is not None:
        return (exact > x) - (exact < x)
    if x >= 2:
        return -1
    if x <= -2:
        return 1
    for k in range(40):
        lo, hi = _cos_enclosure(t, extra=k)
        if lo > x:
            return 1
        if hi < x:
            return -1
    raise SignatureError("certified cosine comparison did not resolve")


def _angle_guess(x: Fraction, bits: int) -> Fraction:
    """An approximation of theta in (0, 1/2) with 2cos(2*pi*theta) = x,
    -2 < x < 2, aimed at an error below 2^-bits: the float arc cosine, then
    Newton steps on the certified cosine while bits exceed float precision.
    Nothing rests on its accuracy; callers certify the result."""
    guess = math.acos(float(x) / 2) / (2 * math.pi)
    theta = Fraction(guess)
    # d(2cos(2*pi*theta))/dtheta; a float slope still gains ~50 bits a step
    slope = Fraction(-4 * math.pi * math.sin(2 * math.pi * guess))
    if bits <= 48 or slope == 0:
        return theta
    extra = max(0, (bits - 51) // 20)  # width below 2^-(bits + 8)
    scale = 1 << (bits + 8)
    for _ in range(bits // 40 + 2):
        lo, hi = _cos_enclosure(theta, extra)
        step = ((lo + hi) / 2 - x) / slope
        theta = Fraction(round((theta - step) * scale), scale)
        if abs(step) * scale < 1:
            break
    return theta


def _theta_enclosure(a: Fraction, b: Fraction,
                     iters: int) -> tuple[Fraction, Fraction]:
    """Certified rational t1 <= theta <= t2 for the angle theta in (0, 1/2)
    of any root x* in [a, b] (with -2 < a <= b < 2).

    Each end is what `iters` certified bisection steps from [0, 1/2] give:
    the dyadic cell of width 2^-(iters+1) that holds theta(x), or (m, m)
    when a cell end m is theta(x) exactly.  The cell comes from a guess and
    is certified by comparisons at its two ends; 2cos(2*pi*theta) is
    decreasing there.  When a check fails the neighbouring cell is tried,
    and after that the cells not yet excluded are bisected, so even a wild
    guess costs at most about twice the comparisons of plain bisection."""
    scale = 1 << (iters + 1)
    last = scale // 2 - 1  # the cell ending at 1/2

    def locate(x: Fraction) -> tuple[Fraction, Fraction]:
        low, high = 0, last  # theta(x) lies in one of the cells low..high
        m = min(max(math.floor(_angle_guess(x, iters + 1) * scale), 0), last)
        neighbour = True
        while True:
            lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
            s = _cos_cmp(lo, x) if m > 0 else 1
            if s == 0:
                return lo, lo
            if s < 0:
                high = m - 1
            elif m < last and _cos_cmp(hi, x) >= 0:
                low = m + 1  # an exact hit at hi is found as the next lo
            else:
                return lo, hi
            if low > high:
                raise SignatureError("certified cosine comparisons disagree")
            m = (low if low > m else high) if neighbour else (low + high) // 2
            neighbour = False

    t1 = locate(b)[0]
    t2 = locate(a)[1]
    return t1, t2


def _sample_u_for_x_range(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational u > 0 with x(u) = 2(1-u^2)/(1+u^2) strictly inside (lo, hi).

    x(u) is a decreasing bijection of u in (0, inf) onto (-2, 2), so the
    target is u^2 in ((2-hi)/(2+hi), (2-lo)/(2+lo)); found by exact
    bisection on u."""
    if not (-2 <= lo < hi <= 2):
        raise SignatureError("bad x range")
    w1 = (2 - hi) / (2 + hi)
    if lo == -2:
        return Fraction(math.isqrt(int(w1)) + 1)
    w2 = (2 - lo) / (2 + lo)
    lo_u = Fraction(0)
    hi_u = Fraction(1)
    while hi_u * hi_u < w2:
        hi_u *= 2
    while True:
        mid = (lo_u + hi_u) / 2
        m2 = mid * mid
        if m2 <= w1:
            lo_u = mid
        elif m2 >= w2:
            hi_u = mid
        else:
            return mid


def signature_function(V: SeifertMatrix) -> SignatureFunction:
    """Complete step data of the Levine-Tristram signature of V."""
    delta = alexander_polynomial(V)
    if V.dim == 0 or delta.span == 0:
        return SignatureFunction((), (0,))
    q = circle_polynomial(delta)
    if q.span == 0:
        val = lt_signature_at(V, None)
        if val != 0:
            raise SignatureError("no jumps but nonzero value: inconsistent")
        return SignatureFunction((), (0,))
    if q[0] == 0:
        # a root at x = 0 would need t^2+1 to divide the Alexander
        # polynomial, which its value ±1 at t = 1 forbids
        raise SignatureError("unit-circle root data inconsistent with a "
                             "valid Seifert matrix")

    records: list[tuple[Fraction | None, tuple[Fraction, Fraction], LaurentPoly]] = []
    two = Fraction(2)
    for psi, _mult in factor_laurent(q):
        n = _cyclotomic_index(psi)
        intervals = isolate_roots(psi, -two, two)
        if n is not None:
            ks = sorted((k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1),
                        reverse=True)
            if len(ks) != len(intervals):
                raise SignatureError("cyclotomic root bookkeeping failed")
            # x ascending <-> theta = k/n descending
            for (a, b), k in zip(intervals, ks):
                records.append((Fraction(k, n), (a, b), psi))
        else:
            for (a, b) in intervals:
                records.append((None, (a, b), psi))

    # refine until isolating intervals are strictly separated and stay away
    # from the endpoints ±2
    def separated(recs):
        recs = sorted(recs, key=lambda r: r[1])
        if recs and recs[0][1][0] <= -2:
            return False
        if recs and recs[-1][1][1] >= 2:
            return False
        for (_, (a1, b1), _), (_, (a2, b2), _) in zip(recs, recs[1:]):
            if not b1 < a2:
                return False
        return True

    width = Fraction(1, 4)
    for _ in range(80):
        if separated(records):
            break
        records = [(ang, refine_interval(f, iv, width), f)
                   for ang, iv, f in records]
        width /= 2
    else:
        raise SignatureError("could not separate jump locations")

    records.sort(key=lambda r: r[1])  # ascending x
    # boundaries of the root-free gaps on the x axis
    gaps = []
    prev_hi = Fraction(-2)
    for _, (a, b), _ in records:
        gaps.append((prev_hi, a))
        prev_hi = b
    gaps.append((prev_hi, Fraction(2)))
    values_x = []
    for glo, ghi in gaps:
        u = _sample_u_for_x_range(glo, ghi)
        values_x.append(lt_signature_at(V, u))
    if values_x[-1] != 0:
        raise SignatureError("signature does not vanish near w = 1")

    # theta ascending = x descending; jump when crossing theta upward is
    # (value on the smaller-x side) - (value on the larger-x side)
    roots = []
    for j in range(len(records) - 1, -1, -1):
        ang, x_iv, fac = records[j]
        jump = values_x[j] - values_x[j + 1]
        roots.append(CircleRoot(ang, x_iv, fac, jump))
    arc_values = tuple(values_x[::-1])
    return SignatureFunction(tuple(roots), arc_values)


# ---------------------------------------------------------------------------
# The signature integral
# ---------------------------------------------------------------------------


def rho0(V: SeifertMatrix, budget: Fraction | None = None) -> RhoExpr:
    """Integral of the Levine-Tristram signature over the circle of length 1.

    Equal to sum_j jump_j * (1 - 2 theta_j) over the jumps in (0, 1/2).
    RhoExpr(v, v) when all jump angles are rational; otherwise a certified
    RhoExpr(lo, hi) with hi - lo <= `budget` (RHOSLICE_PRECISION or 1/10^6).
    """
    sf = signature_function(V)
    return rho0_from_signature(sf, budget)


def rho0_from_signature(sf: SignatureFunction,
                        budget: Fraction | None = None) -> RhoExpr:
    if all(r.angle is not None for r in sf.roots):
        total = sum((Fraction(r.jump) * (1 - 2 * r.angle) for r in sf.roots),
                    Fraction(0))
        return RhoExpr(total, total)
    budget = budget if budget is not None else precision_budget()
    roots = list(sf.roots)
    iters = 30
    for _ in range(60):
        lo_sum, hi_sum = Fraction(0), Fraction(0)
        for r in roots:
            if r.angle is not None:
                c = Fraction(r.jump) * (1 - 2 * r.angle)
                lo_sum += c
                hi_sum += c
                continue
            th_lo, th_hi = _theta_enclosure(r.x_interval[0], r.x_interval[1],
                                            iters)
            c_lo = r.jump * (1 - 2 * (th_hi if r.jump > 0 else th_lo))
            c_hi = r.jump * (1 - 2 * (th_lo if r.jump > 0 else th_hi))
            lo_sum += c_lo
            hi_sum += c_hi
        if hi_sum - lo_sum <= budget:
            return RhoExpr(lo_sum, hi_sum)
        roots = [CircleRoot(r.angle,
                            refine_interval(r.factor, r.x_interval,
                                            (r.x_interval[1] - r.x_interval[0]) / 4
                                            if r.x_interval[1] > r.x_interval[0]
                                            else Fraction(1)),
                            r.factor, r.jump)
                 for r in roots]
        iters += 10
    raise SignatureError(
        f"cannot certify the signature integral to width {budget}")
