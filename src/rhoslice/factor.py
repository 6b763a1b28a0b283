"""Factorization into irreducibles over Q of `polyalg.LaurentPoly`s.

One algorithm, Zassenhaus's, on an integer core: each square-free part
becomes one integer-primitive dense coefficient list, which is factored
modulo a small prime, Hensel-lifted and recombined by exact integer
division.  There is no degree limit; only the number of subsets tried in
recombination is bounded.  Also here: the Capelli check that a linear prime
stays irreducible under v -> v^c, and the cyclotomic polynomials.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce

from .polyalg import (LaurentPoly, PolyalgError, _poly, _poly_sort_key,
                      _prem, _primitive, div_exact, gcd_laurent)


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
