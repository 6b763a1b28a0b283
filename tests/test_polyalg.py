import itertools
import math
import random
import time
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rhoslice import polyalg
from rhoslice.almodule import alexander_module
from rhoslice.polyalg import (
    FracCoset,
    LaurentPoly,
    PolyalgError,
    coset_reduce,
    cyclotomic,
    div_exact,
    divides,
    equal_up_to_unit,
    factor_laurent,
    gcd_laurent,
    inverse_mod,
    reduce_mod,
)
from rhoslice.cli import MAX_CURVE_EXPONENT
from rhoslice.seifert import alexander_polynomial

import factor_oracle
from conftest import random_seifert

T = LaurentPoly.var("t")
ONE = LaurentPoly.one("t")
ZERO = LaurentPoly.zero("t")


def poly(coeffs):
    return LaurentPoly(coeffs, "t")


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
laurents = st.dictionaries(st.integers(-3, 3), small_fractions, max_size=4).map(
    lambda d: LaurentPoly(d, "t"))
nonzero_laurents = laurents.filter(lambda p: not p.is_zero())


# -- ring axioms ------------------------------------------------------------


@given(laurents, laurents, laurents)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents)
@settings(max_examples=50, deadline=None)
def test_conj_and_shift_are_ring_maps(a):
    assert a.conj().conj() == a
    assert a.shift(2).shift(-2) == a
    assert (a * a).conj() == a.conj() * a.conj()


@given(st.dictionaries(st.integers(-8, 8), small_fractions, max_size=5),
       st.one_of(st.just(Fraction(0)), small_fractions))
@example({-2: Fraction(1), 3: Fraction(5)}, Fraction(0))
@example({0: Fraction(4), 2: Fraction(-1)}, Fraction(0))
@example({-3: Fraction(2), 1: Fraction(-1, 3)}, Fraction(-3, 2))
@settings(max_examples=200, deadline=None)
def test_evaluate_is_the_term_by_term_sum(terms, x):
    p = poly(terms)
    if x == 0 and any(e < 0 and c for e, c in terms.items()):
        with pytest.raises(PolyalgError, match="negative exponents at 0"):
            p.evaluate(x)
        return
    want = sum((c * x ** e for e, c in terms.items() if e >= 0 or x),
               Fraction(0))
    assert p.evaluate(x) == want
    assert isinstance(p.evaluate(x), Fraction)


def test_variable_mismatch_rejected():
    s = LaurentPoly.var("s")
    with pytest.raises(PolyalgError, match="variable mismatch"):
        _ = T + s
    with pytest.raises(PolyalgError, match="variable mismatch"):
        gcd_laurent(T, s)


# -- gcd --------------------------------------------------------------------


def test_gcd_spec_values():
    assert gcd_laurent(2 * T - 1, T - 2) == ONE
    p = 2 * T - 1
    assert gcd_laurent(p, ZERO) == p.monic()
    assert gcd_laurent((2 * T - 1) * (T - 2), (T - 2) * (T - 2)) == T - 2


@given(nonzero_laurents, nonzero_laurents)
@settings(max_examples=80, deadline=None)
def test_gcd_divides_and_witness(a, b):
    g = gcd_laurent(a, b)
    assert divides(g, a) and divides(g, b)
    # a/g is invertible modulo b/g, which witnesses that g is the gcd
    a1, b1 = div_exact(a, g), div_exact(b, g)
    if b1.span > 0:
        assert coset_reduce(a1 * inverse_mod(a1, b1) - 1, b1).is_zero()


def test_inverse_mod():
    inv = inverse_mod(T + 1, 2 * T - 1)
    r = coset_reduce((T + 1) * inv - 1, 2 * T - 1)
    assert r.is_zero()
    with pytest.raises(PolyalgError, match="not invertible"):
        inverse_mod(2 * T - 1, (2 * T - 1) * (T - 2))


def reduce_mod_oracle(a, m):
    """a modulo m through the inverse u of v modulo m: v^k a is reduced
    and multiplied by u^k, with u^k taken by repeated squaring."""
    mm = m.monic()
    k = max(0, -a.low)
    _, u, _ = polyalg._poly_xgcd(T, mm)
    power, base = ONE, polyalg.poly_divmod(u, mm)[1]
    while k:
        if k & 1:
            power = polyalg.poly_divmod(power * base, mm)[1]
        base = polyalg.poly_divmod(base * base, mm)[1]
        k >>= 1
    reduced = polyalg.poly_divmod(a.shift(max(0, -a.low)), mm)[1]
    return polyalg.poly_divmod(reduced * power, mm)[1]


def test_reduce_mod_matches_the_inverse_oracle():
    # exponents down to -MAX_CURVE_EXPONENT, as curve classes allow
    rng = random.Random(2020)
    for trial in range(300):
        deg = rng.randint(1, 3)
        m = poly({e: rng.randint(-5, 5) for e in range(deg)}
                 | {0: rng.choice([1, -1, 2, -3]), deg: rng.randint(1, 4)})
        low = (-MAX_CURVE_EXPONENT if trial % 30 == 0
               else rng.randint(-40, 0))
        a = poly({rng.randint(low, 12): Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 5))
                  for _ in range(rng.randint(0, 5))} | {low: 1})
        got = reduce_mod(a, m)
        assert got == reduce_mod_oracle(a, m)
        assert got.is_zero() or (got.low >= 0 and got.degree < deg)
        assert divides(m, a - got)
    # a unit factor v^k of m does not change the ideal
    assert reduce_mod(T.inverse_unit(), T * T + T) == poly({0: -1})


# -- factorization ----------------------------------------------------------


def test_factor_spec_values():
    assert factor_laurent(2 * T * T - 1) == [(T * T - Fraction(1, 2), 1)]
    assert factor_laurent((2 * T - 1) * (T - 2)) == [
        (T - 2, 1), (T - Fraction(1, 2), 1)]
    assert factor_laurent(ONE) == []


def test_factor_zero_rejected():
    with pytest.raises(PolyalgError):
        factor_laurent(ZERO)


def test_factor_binomials_any_degree():
    # binomials a*t^c - b past degree 8, which the old path decided by the
    # binomial criterion
    assert factor_laurent(2 * T ** 12 - 1) == [(T ** 12 - Fraction(1, 2), 1)]
    assert factor_laurent(T ** 12 - 2) == [(T ** 12 - 2, 1)]
    fac = factor_laurent(T ** 10 - 1)
    assert sorted(f.span for f, _ in fac) == [1, 1, 4, 4]


def test_dense_degree9_factors_like_sympy():
    # the old path refused this input at its degree cap of 8
    sympy = pytest.importorskip("sympy")
    p = sum((T ** k for k in range(10)), ZERO) + T ** 9  # dense degree 9
    with pytest.raises(PolyalgError, match="cap"):
        factor_oracle.factor(p)
    _assert_matches_sympy(sympy, p)
    assert [f.span for f, _ in factor_laurent(p)] == [9]


def _swinnerton_dyer(radicands):
    """The integer minimal polynomial of the sum of the square roots of the
    given distinct primes, of degree 2^len(radicands): the product of
    x - (±sqrt(a) ± sqrt(b) ± ...).  It is irreducible over Q, and modulo
    every prime its irreducible factors have degree at most 2, the hardest
    case for recombination."""
    p = T
    for a in radicands:
        # p(x + sqrt(a)) = A + sqrt(a) B, and p(x - sqrt(a)) = A - sqrt(a) B
        A, B = ZERO, ZERO
        for c in reversed(p.poly_coeffs()):
            A, B = A * T + B * a + c, A + B * T
        p = A * A - B * B * a
    return p


def test_recombination_bound_is_checked_before_each_size(monkeypatch):
    sd = _swinnerton_dyer([2, 3, 5])
    assert sd == T ** 8 - 40 * T ** 6 + 352 * T ** 4 - 960 * T ** 2 + 576
    drawn = []

    def combinations(pool, size):
        for subset in itertools.combinations(pool, size):
            drawn.append(size)
            yield subset

    monkeypatch.setattr(polyalg, "itertools",
                        types.SimpleNamespace(combinations=combinations))
    assert factor_laurent(sd) == [(sd, 1)]
    full = len(drawn)  # 4 modular factors: 4 singles and 6 pairs
    assert sorted(set(drawn)) == [1, 2] and full == 4 + 6
    drawn.clear()
    monkeypatch.setattr(polyalg, "FACTOR_RECOMBINATION_BOUND", full - 1)
    with pytest.raises(PolyalgError,
                       match=r"FACTOR_RECOMBINATION_BOUND = 9 .*\(4 tried "
                             r"before size 2\)"):
        factor_laurent(sd)
    assert drawn == [1] * 4  # no pair was tried


def test_swinnerton_dyer_degree_32_within_the_bound():
    # 16 modular factors: all 39,202 subsets of up to 8 are tried, within
    # the bound of 2^16, to prove it irreducible
    sd = _swinnerton_dyer([2, 3, 5, 7, 11])
    assert sd.span == 32
    start = time.perf_counter()
    assert factor_laurent(sd) == [(sd, 1)]
    assert time.perf_counter() - start < 10


def test_twenty_linear_factors():
    p = ONE
    for k in range(1, 21):
        p = p * (T - k if k % 2 else k * T + 1)
    got = factor_laurent(p)
    assert len(got) == 20 and all(f.span == 1 and m == 1 for f, m in got)
    assert equal_up_to_unit(math.prod((f for f, _ in got), start=ONE), p)


def test_factor_cyclotomic_fast_path():
    # base-changed trefoil annihilator: t^10 - t^5 + 1 = Phi_6 * Phi_30
    fac = factor_laurent(T ** 10 - T ** 5 + 1)
    assert [(str(f), m) for f, m in fac] == [
        ("t^2 - t + 1", 1),
        ("t^8 + t^7 - t^5 - t^4 - t^3 + t + 1", 1),
    ]
    assert fac[0][0] == cyclotomic(6)
    assert fac[1][0] == cyclotomic(30)
    mixed = (T ** 10 - T ** 5 + 1) * (T ** 5 - 2)
    assert [str(f) for f, _ in factor_laurent(mixed)] == [
        "t^2 - t + 1", "t^5 - 2", "t^8 + t^7 - t^5 - t^4 - t^3 + t + 1"]


def test_factor_quartics():
    assert factor_laurent(T ** 4 + 4) == [
        (poly({2: 1, 1: -2, 0: 2}), 1), (poly({2: 1, 1: 2, 0: 2}), 1)]
    assert factor_laurent(T ** 8 - T ** 4 + 1) == [(T ** 8 - T ** 4 + 1, 1)]
    assert factor_laurent(T ** 2 - T + 1) == [(T ** 2 - T + 1, 1)]
    assert factor_laurent((T - 1) * (T + 1)) == [(T - 1, 1), (T + 1, 1)]


@given(st.lists(st.sampled_from([
    poly({1: 1, 0: -2}), poly({1: 2, 0: -1}), poly({2: 1, 1: -1, 0: 1}),
    poly({1: 1, 0: 1}), poly({2: 1, 0: 2}), poly({1: 3, 0: 1}),
]), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_factor_remultiplies(factors):
    product = ONE
    for f in factors:
        product = product * f
    result = factor_laurent(product)
    back = ONE
    for f, m in result:
        back = back * f ** m
    assert equal_up_to_unit(back, product)
    for f, _ in result:
        assert factor_laurent(f) == [(f.monic(), 1)]


def test_cyclotomic_values():
    assert cyclotomic(1) == T - 1
    assert cyclotomic(6) == T * T - T + 1
    assert cyclotomic(12) == T ** 4 - T ** 2 + 1
    prod = ONE
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic(d)
    assert prod == T ** 6 - 1


# -- the integer core of factoring ------------------------------------------


def _dense_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lagrange_int(xs, ys, deg):
    """Integer dense coefficients of the interpolating polynomial if it has
    degree deg, else None: Lagrange's formula over Fraction, the oracle for
    the integer Newton interpolation."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if i == j:
                continue
            num = _dense_mul(num, [Fraction(-xs[j]), Fraction(1)])
            den *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / den
        for k in range(len(num)):
            coeffs[k] += num[k] * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        return None
    out = [int(c) for c in coeffs]
    if len(out) - 1 != deg or out[-1] == 0:
        return None
    return out


def test_newton_interpolation_matches_lagrange_oracle():
    rng = random.Random(5)
    integral = 0
    for trial in range(800):
        n = rng.randint(1, 7)
        xs = rng.sample(range(-8, 9), n)
        coeffs = [rng.randint(-20, 20) for _ in range(n)]
        if trial % 2:
            ys = [int(LaurentPoly.from_coeffs(coeffs).evaluate(x)) for x in xs]
        else:
            ys = [rng.randint(-60, 60) for _ in range(n)]
        got = polyalg._newton_interpolate(xs, ys)
        if got is None:
            assert _lagrange_int(xs, ys, n - 1) is None
            continue
        integral += 1
        assert len(got) == n
        assert [LaurentPoly.from_coeffs(got).evaluate(x) for x in xs] == ys
        if trial % 2:
            assert got == coeffs
        while len(got) > 1 and got[-1] == 0:
            got.pop()
        assert _lagrange_int(xs, ys, len(got) - 1) == (got if got[-1] else None)
    assert integral > 400  # the value-sampled half is always integral


def test_int_div_exact():
    f = [-6, 1, 1]  # (t + 3)(t - 2)
    assert polyalg._int_div_exact(f, [3, 1]) == [-2, 1]
    assert polyalg._int_div_exact(f, [1, 1]) is None
    assert polyalg._int_div_exact(f, [6, 2]) is None  # divides over Q only
    assert polyalg._int_div_exact([-1, 0, 2], [-1, 1]) is None


def test_rational_roots_list_each_divisor_set_once(monkeypatch):
    # the old path's rational-root search, kept as the oracle
    calls = []
    divisors = factor_oracle._divisors
    monkeypatch.setattr(factor_oracle, "_divisors",
                        lambda n: calls.append(n) or divisors(n))
    n = 10 ** 6
    p = (n * T - (n + 1)) * ((n + 1) * T - n)
    assert factor_oracle.factor(p) == [(T - Fraction(n + 1, n), 1),
                                       (T - Fraction(n, n + 1), 1)]
    assert len(calls) <= 2


def _trial_divisors(n):
    """The divisors of n by trial division up to sqrt(n): the oracle of the
    factorization-based `factor_oracle._divisors`."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_match_trial_division():
    rng = random.Random(31)
    values = [0, 1, -1, 2, 12, -36, 97, 10 ** 6, 2 ** 20, 3 ** 7 * 5 ** 3,
              10 ** 6 * (10 ** 6 + 1) // 1000]
    values += [rng.randint(-10 ** 6, 10 ** 6) for _ in range(60)]
    for n in values:
        assert factor_oracle._divisors(n) == _trial_divisors(n), n


def test_divisors_of_a_large_smooth_value_are_fast():
    # 10^6 * (10^6 + 1) = 2^6 5^6 101 9901: trial division to sqrt(n) took
    # about 0.1 s per call, the factorization needs trial divisors to 100
    n = 10 ** 6 * (10 ** 6 + 1)
    start = time.perf_counter()
    got = factor_oracle._divisors(n)
    assert time.perf_counter() - start < 0.05
    assert len(got) == 7 * 7 * 2 * 2 and got == sorted(got)
    assert all(n % d == 0 for d in got) and got[-1] == n


def test_nth_root_exact_at_every_size():
    rng = random.Random(41)
    bases = [0, 1, 2, 3, 10 ** 20 + 7, 2 ** 200 - 1]
    for r in range(2, 8):
        top = int(500 / r / math.log10(2))  # roots up to 10^500 / r digits
        for base in bases + [rng.getrandbits(rng.randint(2, top))
                             for _ in range(20)]:
            n = base ** r
            assert polyalg._nth_root_exact(n, r) == base
            if n > 1:
                assert polyalg._nth_root_exact(n - 1, r) is None
            assert polyalg._nth_root_exact(n + 1, r) is None or n == 0
    assert polyalg._nth_root_exact((10 ** 20 + 7) ** 2, 2) == 10 ** 20 + 7
    assert polyalg._nth_root_exact(10 ** 400, 2) == 10 ** 200
    assert polyalg._nth_root_exact(10 ** 500, 5) == 10 ** 100
    assert polyalg._nth_root_exact(10 ** 500 + 1, 5) is None
    assert polyalg._nth_root_exact(-8, 3) is None


def test_capelli_certificate_spec_values():
    certified = [T - 2, 2 * T - 1, T - Fraction(3, 2), T + 2, T - 6,
                 T - Fraction(31, 30), T + 3]
    refused = [
        4 * T - 1,        # 1/4 = (1/2)^2: t^2 - 1/4 splits
        T - 8,            # 2^3
        T + 8,            # (-2)^3
        T + 4,            # -4 * 1^4: t^4 + 4 splits
        4 * T + 1,        # -4 * (1/2)^4: t^4 + 1/4 splits
        T + 64,           # -4 * 2^4, and also (-4)^3
        T - 1, T + 1, 9 * T - 4,
        T * T - T + 1,    # nonlinear: no claim
        T * T - 2,
    ]
    assert all(polyalg.capelli_certified(p) for p in certified)
    assert not any(polyalg.capelli_certified(p) for p in refused)
    # 4t - 1 splits at c = 2
    assert len(factor_laurent((4 * T - 1).subs_power(2))) == 2


def test_capelli_certificate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)
    pairs = [(1, 2), (2, 1), (4, 1), (1, -4), (1, 8), (1, -8), (9, 4),
             (1, 1), (1, -1), (27, -8), (1, -64), (16, 81)]
    while len(pairs) < 20:
        a, b = rng.randint(1, 16), rng.choice([-1, 1]) * rng.randint(1, 16)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    refusals = 0
    for a, b in pairs:
        # over c <= 30 every refused r = b/a (|a|, |b| <= 81) splits: a
        # p-th power at c = p <= 6, -4Q^4 at c = 4, and ±1 at c = 2 or 3
        irreducible = all(
            [k for _, k in sympy.Poly(a * x ** c - b, x).factor_list()[1]]
            == [1] for c in range(1, 31))
        assert polyalg.capelli_certified(a * T - b) == irreducible, (a, b)
        refusals += not irreducible
    assert 10 <= refusals <= len(pairs) - 5


def _random_factorable(rng):
    """A random product of pieces the old path (`factor_oracle`) decides
    too: linear factors, binomials a*t^n - b, cyclotomics and one root-free
    piece of degree up to 8 for Kronecker's search, with repeated factors
    and a Fraction unit."""
    p = LaurentPoly.monomial(rng.randint(-3, 3),
                             Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                      rng.randint(1, 9)))
    for _ in range(rng.randint(0, 2)):
        p = p * LaurentPoly({1: rng.randint(1, 6), 0: rng.choice([-1, 1])
                             * rng.randint(1, 6)}) ** rng.randint(1, 3)
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(2, 12)
        b = rng.choice([1, 2, 3, 4, 8, 9, 16, 27, 32, 64, 81])
        p = p * LaurentPoly({n: rng.choice([1, 2, 4, 9]),
                             0: rng.choice([-1, 1]) * b})
    elif kind == 1:
        for _ in range(rng.randint(1, 2)):
            p = p * cyclotomic(rng.randint(1, 30)) ** rng.randint(1, 2)
    else:
        piece, target = ONE, rng.randint(2, 8)
        while target - piece.span >= 2:
            d = rng.randint(2, min(4, target - piece.span))
            piece = piece * LaurentPoly.from_coeffs(
                [rng.choice([-2, -1, 1, 2])]
                + [rng.randint(-2, 2) for _ in range(d - 1)] + [1])
        p = p * piece ** rng.choice([1, 1, 2])
    return p


def _assert_matches_sympy(sympy, p):
    x = sympy.Symbol("x")
    m = p.monic()
    coeffs = [sympy.Rational(c.numerator, c.denominator)
              for c in reversed(m.poly_coeffs())]
    _, expected = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    want = sorted(
        (tuple(Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())), k)
        for f, k in expected)
    got = sorted((tuple(f.poly_coeffs()), k) for f, k in factor_laurent(p))
    assert got == want, str(p)
    return got


def test_factor_matches_sympy_on_random_products():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(240):
        _assert_matches_sympy(sympy, _random_factorable(rng))


def _random_past_the_cap(rng):
    """A random product with a piece of degree 9 to 16: a dense random
    integer polynomial, nearly always irreducible, or q(t^k) for a random
    q, which may split; times a dense piece of degree 2 to 8 or a
    cyclotomic, linear factors, a repeated factor and a unit."""
    def dense(deg):
        return LaurentPoly.from_coeffs(
            [rng.choice([-3, -2, -1, 1, 2, 3])]
            + [rng.randint(-9, 9) for _ in range(deg - 1)]
            + [rng.randint(1, 4)])

    if rng.randrange(3):
        p = dense(rng.randint(9, 16))
    else:
        k = rng.choice([3, 4, 5])
        p = dense(rng.randint(-(-9 // k), 16 // k)).subs_power(k)
    kind = rng.randrange(3)
    if kind == 0:
        p = p * dense(rng.randint(2, 8))
    elif kind == 1:
        p = p * cyclotomic(rng.randint(1, 30))
    for _ in range(rng.randint(0, 2)):
        p = p * LaurentPoly({1: rng.randint(1, 6), 0: rng.choice([-1, 1])
                             * rng.randint(1, 6)})
    if rng.random() < 0.2:
        p = p * dense(rng.randint(1, 3)) ** 2
    return p * LaurentPoly.monomial(rng.randint(-3, 3),
                                    Fraction(rng.randint(1, 9), rng.randint(1, 9)))


def test_factor_matches_sympy_past_the_old_cap():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    large = 0
    for _ in range(200):
        got = _assert_matches_sympy(sympy, _random_past_the_cap(rng))
        large += max(len(f) for f, _ in got) > 9
    assert large >= 100


def test_factor_matches_the_old_path():
    # the old path decides every degree <= 8 input and these special shapes
    rng = random.Random(2027)
    decided = 0
    for _ in range(300):
        p = _random_factorable(rng)
        try:
            want = factor_oracle.factor(p)
        except PolyalgError:
            continue
        assert factor_laurent(p) == want, str(p)
        decided += 1
    assert decided >= 250


def test_quadratics_factor_like_sympy():
    # half are products of two linear factors with coefficients up to 10^6,
    # so the discriminant is a square; the rest have coefficients up to 10^12
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2025)
    split = 0
    for i in range(300):
        if i % 2:
            a, b, c = (rng.randint(-10 ** 12, 10 ** 12) for _ in range(3))
            p = LaurentPoly.from_coeffs([c, b, a or 1])
        else:
            p = LaurentPoly.from_coeffs(
                [rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)]) * \
                LaurentPoly.from_coeffs(
                    [rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)])
        if p[0] == 0:
            continue
        _assert_matches_sympy(sympy, p)
        split += len(factor_laurent(p)) == 2
    assert split >= 140


def test_quadratic_roots_factor_no_integer():
    # [[0, p], [p+1, 0]] with p = nextprime(10^14): trial division of the
    # leading coefficient p(p+1) would not finish
    p = 100000000000031
    delta = (p * T - (p + 1)) * ((p + 1) * T - p)
    start = time.perf_counter()
    assert factor_laurent(delta) == [(T - Fraction(p + 1, p), 1),
                                     (T - Fraction(p, p + 1), 1)]
    assert time.perf_counter() - start < 1
    # a square discriminant of zero, and one that is not a square
    assert factor_laurent((3 * T - 2) ** 2) == [(T - Fraction(2, 3), 2)]
    assert factor_laurent(T * T - 2) == [(T * T - 2, 1)]


def test_factor_matches_sympy_on_alexander_polynomials():
    sympy = pytest.importorskip("sympy")
    for genus in (1, 2, 3, 4):
        rng = random.Random(genus)
        for _ in range(12):
            _assert_matches_sympy(
                sympy, alexander_polynomial(random_seifert(rng, genus=genus)))


def test_factor_matches_sympy_on_genus_5_and_6_alexander_polynomials():
    sympy = pytest.importorskip("sympy")
    for genus in (5, 6):
        rng = random.Random(genus)
        for _ in range(10):
            _assert_matches_sympy(
                sympy, alexander_polynomial(random_seifert(rng, genus=genus)))


def test_genus4_seed11_module_is_one_degree8_summand():
    # Proving this degree-8 Alexander polynomial irreducible walks the whole
    # Kronecker search, which took about 20 s with Fraction interpolation.
    V = random_seifert(random.Random(11), genus=4)
    start = time.perf_counter()
    module = alexander_module(V)
    assert time.perf_counter() - start < 5
    assert [s.annihilator.span for s in module.summands] == [8]


# -- cosets -----------------------------------------------------------------


def test_coset_spec_values():
    c = coset_reduce(T * T + 1, 2 * T - 1)
    assert c.num == LaurentPoly.constant(Fraction(5, 4))
    assert c.den == 2 * T - 1
    assert coset_reduce(2 * T - 1, 2 * T - 1).is_zero()
    c2 = coset_reduce(1 - T, 2 * T - 1)
    assert not c2.is_zero()
    assert c2.num.span < c2.den.span


def test_coset_zero_denominator():
    with pytest.raises(PolyalgError, match="zero denominator"):
        coset_reduce(ONE, ZERO)


@given(nonzero_laurents, nonzero_laurents, laurents)
@settings(max_examples=80, deadline=None)
def test_coset_representative_invariance(n, d, k):
    # adding any multiple of d to n does not change the coset
    assert coset_reduce(n, d) == coset_reduce(n + k * d, d)


@given(laurents, nonzero_laurents, nonzero_laurents)
@settings(max_examples=100, deadline=None)
def test_coset_canonical_form(a, b, g):
    # the common factor g exercises the gcd step
    n, d = a * g, b * g
    z = coset_reduce(n, d)
    num, den = z.num, z.den
    assert gcd_laurent(num, den).is_one()
    coeffs = den.poly_coeffs()
    assert den.low == 0 and den.leading() > 0
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(int(c) for c in coeffs)) == 1
    if z.is_zero():
        assert den.is_one()
    else:
        assert num.low >= 0 and num.degree < den.degree
    # n/d - num/den = (n*den - num*d) / (d*den) is a Laurent polynomial
    assert divides(d * den, n * den - num * d)


def test_coset_zero_iff_divides():
    assert coset_reduce((2 * T - 1) * (T ** 3 - 5), 2 * T - 1).is_zero()
    assert not coset_reduce(T - 2, 2 * T - 1).is_zero()
    # Laurent multiples count: t^{-3}*(2t-1) is still a multiple
    assert coset_reduce((2 * T - 1).shift(-3), 2 * T - 1).is_zero()


@given(nonzero_laurents, nonzero_laurents, nonzero_laurents)
@settings(max_examples=60, deadline=None)
def test_coset_module_structure(n, d, f):
    z = coset_reduce(n, d)
    assert z.scale(f) == coset_reduce(n * f, d)
    assert (z + z.scale(-1)).is_zero()


@given(laurents, nonzero_laurents, st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_coset_subs_power_is_canonical(n, d, c):
    z = coset_reduce(n, d)
    w = z.subs_power(c)
    assert w == FracCoset(z.num.subs_power(c), z.den.subs_power(c))
    assert w == coset_reduce(n.subs_power(c), d.subs_power(c))


def test_coset_conj():
    z = coset_reduce(1 - T, 2 * T - 1)
    assert z.conj() == coset_reduce(1 - T, T - 2)
    assert z.conj().conj() == z


# -- unit normalization and serialization -----------------------------------


def test_unit_normal():
    # -6t + 3t^{-2} = (-6 t^{-2}) * (t^3 - 1/2)
    p = poly({-2: Fraction(3), 1: Fraction(-6)})
    m, q, k = p.unit_normal()
    assert m == T ** 3 - Fraction(1, 2)
    assert (q, k) == (Fraction(-6), -2)
    assert LaurentPoly.monomial(k, q) * m == p
    assert equal_up_to_unit(p, m)


def test_div_exact_units():
    p = (2 * T - 1) * (T - 2)
    assert div_exact(p, 2 * T - 1) == T - 2
    with pytest.raises(PolyalgError, match="not divisible"):
        div_exact(2 * T - 1, T - 2)


def _laurent_from_json(data: dict) -> LaurentPoly:
    return LaurentPoly({int(e): Fraction(c)
                        for e, c in data["coefficients"].items()},
                       data["variable"])


@given(laurents)
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip(p):
    assert _laurent_from_json(p.to_json()) == p


@given(nonzero_laurents, nonzero_laurents)
@settings(max_examples=40, deadline=None)
def test_coset_serialization_round_trip(n, d):
    z = coset_reduce(n, d)
    data = z.to_json()
    assert FracCoset(_laurent_from_json(data["num"]),
                     _laurent_from_json(data["den"])) == z
