"""The factoring path the package used before Zassenhaus's algorithm: a
test oracle that needs no sympy.

Each square-free part is split by special cases, every split an exact
integer division: rational roots (from the discriminant for a quadratic,
else from divisor lists built by trial division), the binomial criterion
for a*v^n - b, cyclotomic recognition up to index 120, and Kronecker's
search with integer Newton interpolation.  General inputs are decided up to
degree 8; past that, and when Kronecker's search space is too large, it
raises `PolyalgError` naming its cap.  `factor(p)` has the output format of
`polyalg.factor_laurent`.
"""

import itertools
import math
from fractions import Fraction

from rhoslice.polyalg import (
    LaurentPoly,
    PolyalgError,
    _cyclotomic_int,
    _int_content_primitive,
    _int_div_exact,
    _newton_interpolate,
    _nth_root_exact,
    _poly_sort_key,
    _rational_power_root,
    _squarefree_parts,
)

FACTOR_DEGREE_CAP = 8
_KRONECKER_COMBO_CAP = 500_000
CYCLOTOMIC_SEARCH_BOUND = 120


def _rational_root_split(ints: list[int]) -> tuple[list[int], list[int]] | None:
    """The linear factor q*v - p of a rational root p/q, and its cofactor,
    or None if there is no rational root.

    A quadratic c + b*v + a*v^2 has one exactly when its discriminant
    b^2 - 4ac is a square s^2, and then p/q = (s - b)/2a; no integer is
    factored.  For higher degrees the candidates are ±p/q with p | constant
    term and q | leading coefficient, in increasing p, then q, + before -;
    each costs one exact integer division."""
    if len(ints) == 3:
        c, b, a = ints
        s = _nth_root_exact(b * b - 4 * a * c, 2)
        if s is None:
            return None
        root = Fraction(s - b, 2 * a)
        linear = [-root.numerator, root.denominator]
        return linear, _int_div_exact(ints, linear)
    leading_divisors = _divisors(ints[-1])
    for p in _divisors(ints[0]):
        for q in leading_divisors:
            if math.gcd(p, q) == 1:
                for linear in ([-p, q], [p, q]):
                    cofactor = _int_div_exact(ints, linear)
                    if cofactor is not None:
                        return linear, cofactor
    return None


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0 in increasing order ([] for 0), from
    its factorization into primes."""
    if n == 0:
        return []
    out = [1]
    for p, e in _prime_factors(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def _prime_factors(n: int) -> dict[int, int]:
    """{p: e} for the prime powers p^e that make up n >= 1, by trial
    division; the keys come in increasing order."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def _binomial_split(ints: list[int]) -> list[list[int]] | None:
    """Decide a two-term polynomial a*v^n + b (n >= 2, b != 0).

    Returns a nontrivial factorization [f, g] into integer-primitive lists
    if reducible, [] if irreducible, None if ints is not of this shape.
    This is the classical binomial irreducibility criterion: v^n - q is
    irreducible over Q unless q is an r-th power for a prime r | n, or
    4 | n and q = -4 w^4.
    """
    n = len(ints) - 1
    if n < 2 or any(ints[1:-1]):
        return None
    q = Fraction(-ints[0], ints[-1])  # ints = lc * (v^n - q)
    for r in sorted(_prime_factors(n)):
        w = _rational_power_root(q, r)
        if w is not None:
            m = n // r
            # v^n - w^r = (v^m - w) * sum_{k<r} w^k v^{m(r-1-k)}
            first = LaurentPoly({m: 1, 0: -w})
            second = LaurentPoly({m * (r - 1 - k): w ** k for k in range(r)})
            return [_int_content_primitive(first), _int_content_primitive(second)]
    if n % 4 == 0:
        w4 = _rational_power_root(-q / 4, 4)
        if w4 is not None:
            m = n // 4
            # v^n + 4w^4 = (v^{2m} + 2w v^m + 2w^2)(v^{2m} - 2w v^m + 2w^2)
            f1 = LaurentPoly({2 * m: 1, m: 2 * w4, 0: 2 * w4 ** 2})
            f2 = LaurentPoly({2 * m: 1, m: -2 * w4, 0: 2 * w4 ** 2})
            return [_int_content_primitive(f1), _int_content_primitive(f2)]
    return []


def _kronecker_factor(ints: list[int]) -> tuple[list[int], list[int]] | None:
    """Split a primitive, root-free integer polynomial into an integer
    factor of degree d >= 2 and its cofactor by Kronecker's search, or None
    if it is irreducible.

    A factor of degree d is fixed by its values at d + 1 pool points, each a
    divisor of the polynomial's value there; every choice of divisors is
    interpolated, and a non-integer interpolant is no candidate.  Candidates
    are checked by exact division over Z: one with content c > 1 fails it,
    but its primitive part (first value positive and c times smaller) comes
    earlier in the search, so the first factor found is the one that
    division over Q would find."""
    deg = len(ints) - 1
    poly = LaurentPoly.from_coeffs(ints)
    divisors = {x: _divisors(int(poly.evaluate(x))) for x in range(-8, 9)}
    pool = sorted(divisors, key=lambda x: (len(divisors[x]), abs(x)))
    for d in range(2, deg // 2 + 1):
        points = pool[: d + 1]
        choice_sets = [divisors[points[0]]] + [
            [s * w for w in divisors[x] for s in (1, -1)] for x in points[1:]]
        if math.prod(map(len, choice_sets)) > _KRONECKER_COMBO_CAP:
            raise PolyalgError(
                "factorization cap: Kronecker search space too large for "
                f"degree-{deg} input")
        for combo in itertools.product(*choice_sets):
            cand = _newton_interpolate(points, combo)
            if cand is None or cand[-1] == 0:
                continue
            if cand[-1] < 0:
                cand = [-c for c in cand]
            cofactor = _int_div_exact(ints, cand)
            if cofactor is not None:
                return cand, cofactor
    return None


def _euler_phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def _cyclotomic_divisor(ints: list[int]) -> tuple[list[int], list[int]] | None:
    """A cyclotomic factor of ints with index up to the search bound and its
    cofactor, if there is one.

    Cyclotomics are the factors that arise from base-changing cyclotomic
    annihilators, so this keeps such inputs factorable above the Kronecker
    degree cap.
    """
    for n in range(3, CYCLOTOMIC_SEARCH_BOUND + 1):
        if _euler_phi(n) > len(ints) - 1:
            continue
        cyc = list(_cyclotomic_int(n))
        cofactor = _int_div_exact(ints, cyc)
        if cofactor is not None:
            return cyc, cofactor
    return None


def _factor_squarefree(p: LaurentPoly) -> list[LaurentPoly]:
    """Irreducible monic factors of a monic square-free exp-0 polynomial.

    Every work item is an integer-primitive dense coefficient list, and
    every split is an exact integer division; the irreducible factors
    become monic Laurent polynomials at the end."""
    factors: list[list[int]] = []
    work = [_int_content_primitive(p)]
    while work:
        f = work.pop()
        deg = len(f) - 1
        if deg == 0:
            continue
        if deg == 1:
            factors.append(f)
            continue
        split = _rational_root_split(f)
        if split is not None:
            work.extend(split)
            continue
        if deg <= 3:
            # no rational root: degrees 2 and 3 are irreducible
            factors.append(f)
            continue
        split = _binomial_split(f)
        if split is not None:
            if split:
                work.extend(split)
            else:
                factors.append(f)
            continue
        if deg > FACTOR_DEGREE_CAP:
            cyc = _cyclotomic_divisor(f)
            if cyc is not None:
                factors.append(cyc[0])
                work.append(cyc[1])
                continue
            raise PolyalgError(
                f"factorization cap: degree {deg} exceeds {FACTOR_DEGREE_CAP} "
                "and the polynomial is neither a binomial nor divisible by a "
                "small cyclotomic")
        split = _kronecker_factor(f)
        if split is None:
            factors.append(f)
        else:
            work.extend(split)
    return [LaurentPoly.from_coeffs(f, p.variable).monic() for f in factors]


def factor(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """`polyalg.factor_laurent` on the old path."""
    if p.is_zero():
        raise PolyalgError("cannot factor the zero polynomial")
    counts: dict[LaurentPoly, int] = {}
    for sqfree, mult in _squarefree_parts(p.monic()):
        for f in _factor_squarefree(sqfree):
            counts[f] = counts.get(f, 0) + mult
    return sorted(counts.items(), key=lambda kv: _poly_sort_key(kv[0]))
