import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rhoslice import signatures
from rhoslice.factor import cyclotomic, factor_laurent
from rhoslice.polyalg import LaurentPoly, divides
from rhoslice.seifert import (
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    knot_transform,
    trefoil_left,
    trefoil_right,
    unknot,
)
from rhoslice.signatures import (
    SignatureError,
    _cos_enclosure,
    _cyclotomic_index,
    _euler_phi,
    _theta_enclosure,
    circle_polynomial,
    cos_minimal_polynomial,
    isolate_roots,
    lt_signature_at,
    rho0,
    rho0_from_signature,
    signature_function,
    sturm_chain,
    sturm_count,
    symmetric_inertia,
)

from conftest import (
    GaussianRational,
    circle_point,
    eval_gaussian,
    lt_hermitian,
    random_seifert,
    rho_of,
)

R946 = SeifertMatrix([[0, 1], [2, 0]])
NONCYCLO = SeifertMatrix([[1, 1], [2, 4]])  # jump at x = 3/2, irrational angle


# -- exact signature evaluations ----------------------------------------------


def test_signature_spec_values():
    assert lt_signature_at(trefoil_right(), None) == -2
    assert lt_signature_at(unknot(), Fraction(1)) == 0
    assert lt_signature_at(R946, None) == 0


def test_signature_rejects_bad_points():
    with pytest.raises(SignatureError, match="w = 1"):
        lt_signature_at(trefoil_right(), Fraction(0))
    # the jump-point guard: rational parameters never hit a jump of a valid
    # matrix (the factor of the symmetrized polynomial vanishing at
    # x(u) = 2(q^2-p^2)/(q^2+p^2) would force 4 | Delta(1)), so the guard
    # stays quiet where Delta does not vanish ...
    delta = alexander_polynomial(NONCYCLO)
    for u in (Fraction(1, 2), Fraction(2), None):
        assert not eval_gaussian(delta, circle_point(u)).is_zero()
        lt_signature_at(NONCYCLO, u)


def test_jump_point_guard_fires_on_nullity(monkeypatch):
    # ... and fires on any nonzero nullity of the inertia count, which for
    # |w| = 1, w != 1 is exactly Delta(w) = 0
    monkeypatch.setattr(signatures, "symmetric_inertia", lambda M: (1, 0, 1))
    with pytest.raises(SignatureError, match="jump point"):
        lt_signature_at(NONCYCLO, Fraction(1, 2))


def test_circle_point_conjugation(rng):
    for _ in range(10):
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if u == 0:
            continue
        w = circle_point(u)
        wb = circle_point(-u)
        assert w.conj() == wb
        assert w.norm2() == 1


def test_signature_conjugation_symmetry(rng):
    for _ in range(6):
        V = random_seifert(rng)
        for u in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
            assert lt_signature_at(V, u) == lt_signature_at(V, -u)


# -- inertia oracle: characteristic polynomial + Sturm ---------------------------


def char_poly(H):
    """Characteristic polynomial of a hermitian Gaussian-rational matrix by
    the Faddeev-LeVerrier recursion; coefficients are rational."""
    n = len(H)
    one = GaussianRational.of(1)
    zero = GaussianRational.of(0)
    M = [[one if i == j else zero for j in range(n)] for i in range(n)]
    coeffs = {n: Fraction(1)}
    for k in range(1, n + 1):
        HM = [[sum((H[i][p] * M[p][j] for p in range(n)),
                   start=zero) for j in range(n)] for i in range(n)]
        tr = sum((HM[i][i] for i in range(n)), start=zero)
        assert tr.im == 0
        c = -tr.re / k
        coeffs[n - k] = c
        M = [[HM[i][j] + (GaussianRational.of(c) if i == j else zero)
              for j in range(n)] for i in range(n)]
    return [coeffs[i] for i in range(n + 1)]


def inertia_via_charpoly(H):
    """(#positive, #negative, #zero) eigenvalues counted with multiplicity:
    the zero count is the order of the root 0 of the characteristic
    polynomial, the others come from its square-free decomposition and
    Sturm counts."""
    from rhoslice.factor import _squarefree_parts

    p = char_poly(H)
    zero = next(i for i, c in enumerate(p) if c != 0)
    poly = LaurentPoly({i: c for i, c in enumerate(p[zero:])}, "t")
    bound = Fraction(1) + max(abs(c) for c in p)
    pos = neg = 0
    for part, mult in _squarefree_parts(poly.monic()):
        chain = sturm_chain(part)
        pos += mult * sturm_count(chain, Fraction(0), bound)
        neg += mult * sturm_count(chain, -bound, Fraction(0))
    return pos, neg, zero


def signature_via_charpoly(H):
    """Signature as (#positive - #negative eigenvalues) of a nonsingular
    hermitian matrix."""
    pos, neg, zero = inertia_via_charpoly(H)
    assert zero == 0, "oracle requires a nonsingular matrix"
    return pos - neg


@st.composite
def symmetric_matrices(draw):
    """Integer symmetric matrices of size 1..6; some with an all-zero
    diagonal, which forces the pair step, and some singular, with a row
    and column repeated."""
    n = draw(st.integers(1, 6))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        for i in range(n):
            M[i][i] = 0
    if n > 1 and draw(st.booleans()):
        j = draw(st.integers(0, n - 2))
        M[n - 1] = list(M[j])
        for i in range(n):
            M[i][n - 1] = M[i][j]
    return M


@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, 0]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
@example([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
@example([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
@settings(max_examples=150, deadline=None)
def test_symmetric_inertia_against_charpoly_oracle(M):
    ours = symmetric_inertia(M)
    assert sum(ours) == len(M)
    H = [[GaussianRational.of(x) for x in row] for row in M]
    assert ours == inertia_via_charpoly(H)


def test_inertia_against_charpoly_oracle(rng):
    # lt_signature_at reads a real symmetric matrix; the oracle counts the
    # eigenvalues of the hermitian matrix itself, in Gaussian rationals
    cases = 0
    for _ in range(25):
        V = random_seifert(rng, genus=rng.choice([1, 2, 3]))
        u = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        for point in (u, -u, None):
            if eval_gaussian(alexander_polynomial(V),
                             circle_point(point)).is_zero():
                continue
            assert lt_signature_at(V, point) == \
                signature_via_charpoly(lt_hermitian(V, point))
            cases += 1
    assert cases >= 70


# -- signature function ----------------------------------------------------------


def test_signature_function_trefoil():
    sf = signature_function(trefoil_right())
    assert [(r.angle, r.jump) for r in sf.roots] == [(Fraction(1, 6), -2)]
    assert sf.arc_values == (0, -2)
    assert sf.to_json() == {"jumps": [{"jump": -2, "theta": "1/6"}],
                            "arc_values": [0, -2]}

    def value(theta):
        # the arc value past the jumps below theta, mirrored past 1/2
        theta = min(theta, 1 - theta)
        return sf.arc_values[sum(r.angle < theta for r in sf.roots)]

    assert value(Fraction(1, 2)) == -2 == lt_signature_at(trefoil_right(), None)
    assert value(Fraction(1, 12)) == 0
    assert value(Fraction(11, 12)) == 0


def test_signature_function_946_and_unknot():
    for V in (R946, unknot()):
        sf = signature_function(V)
        assert (sf.roots, sf.arc_values) == ((), (0,))


def test_signature_function_mirror_pointwise(rng):
    for V in (trefoil_right(), NONCYCLO, random_seifert(rng)):
        sf = signature_function(V)
        sfm = signature_function(knot_transform(V, "mirror"))
        assert sfm.arc_values == tuple(-v for v in sf.arc_values)
        assert [r.jump for r in sfm.roots] == [-r.jump for r in sf.roots]


def test_jump_locations_are_alexander_roots():
    for V in (trefoil_right(), connected_sum([trefoil_right(), trefoil_left()]),
              connected_sum([trefoil_right(), trefoil_right()])):
        delta = alexander_polynomial(V)
        q = circle_polynomial(delta)
        for r in signature_function(V).roots:
            if r.angle is not None:
                n = r.angle.denominator
                assert divides(cos_minimal_polynomial(n), q)
            else:
                assert r.factor.low == 0 and r.factor == r.factor.monic()
                assert divides(r.factor, q)


# -- the integral ------------------------------------------------------------------


def test_rho0_spec_values():
    assert rho0(trefoil_right()) == rho_of(Fraction(-4, 3))
    assert rho0(trefoil_left()) == rho_of(Fraction(4, 3))
    assert rho0(unknot()) == rho_of(0)
    granny = connected_sum([trefoil_right(), trefoil_right()])
    assert rho0(granny) == rho_of(Fraction(-8, 3))
    assert rho0(R946) == rho_of(0)


def test_rho0_identities(rng):
    for _ in range(5):
        V = random_seifert(rng)
        W = random_seifert(rng)
        rv, rw = rho0(V), rho0(W)
        if rv.const_lo != rv.const_hi or rw.const_lo != rw.const_hi:
            continue
        assert rho0(knot_transform(V, "mirror")) == -rv
        assert rho0(knot_transform(V, "reverse")) == rv
        assert rho0(connected_sum([V, W])) == rv + rw


def test_rho0_interval_certification():
    r = rho0(NONCYCLO)
    lo, hi = r.const_lo, r.const_hi
    assert lo < hi and not r.coeffs
    assert hi - lo <= Fraction(1, 10 ** 6)
    # monotone refinement: tighter budget stays inside the looser interval
    tight = rho0(NONCYCLO, budget=Fraction(1, 10 ** 10))
    assert lo <= tight.const_lo and tight.const_hi <= hi
    # reverse/mirror identities hold interval-wise
    rm = rho0(knot_transform(NONCYCLO, "mirror"))
    assert (rm.const_lo, rm.const_hi) == (-hi, -lo)
    rr = rho0(knot_transform(NONCYCLO, "reverse"))
    assert rr.const_lo <= hi and lo <= rr.const_hi


def test_rho0_interval_additivity():
    both = connected_sum([NONCYCLO, trefoil_right()])
    r = rho0(both)
    assert r.const_lo < r.const_hi
    single = rho0(NONCYCLO)
    shift = Fraction(-4, 3)
    assert r.const_lo <= single.const_hi + shift
    assert single.const_lo + shift <= r.const_hi


def test_precision_env(monkeypatch):
    from rhoslice import signatures

    monkeypatch.setenv(signatures.PRECISION_ENV, "1/100")
    assert signatures.precision_budget() == Fraction(1, 100)
    monkeypatch.setenv(signatures.PRECISION_ENV, "bogus")
    with pytest.raises(SignatureError):
        signatures.precision_budget()
    monkeypatch.setenv(signatures.PRECISION_ENV, "-1/2")
    with pytest.raises(SignatureError):
        signatures.precision_budget()
    # only "p/q": Fraction alone would expand the exponent, for minutes
    for raw in ("1e-100000000", "0.5", " 1/2"):
        monkeypatch.setenv(signatures.PRECISION_ENV, raw)
        with pytest.raises(SignatureError, match="bad RHOSLICE_PRECISION"):
            signatures.precision_budget()


# -- the certified cosine and jump angles against mpmath ---------------------------
#
# The package computes 2cos(2*pi*theta) in integer interval arithmetic and
# locates each jump angle's dyadic cell directly.  What it replaced is kept
# here as the oracle: mpmath interval cosines in a private context, and the
# certified bisection from [0, 1/2].


@pytest.fixture
def mp_iv():
    """A private mpmath interval context; setting its precision leaves the
    process-wide mpmath.iv untouched."""
    mpmath = pytest.importorskip("mpmath")
    return mpmath.ctx_iv.MPIntervalContext()


def _iv_to_fractions(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath interval (endpoints are dyadic)."""

    def conv(raw) -> Fraction:
        sign, man, exp, bc = raw
        if man == 0:
            if bc == 0:
                return Fraction(0)
            raise SignatureError("non-finite interval endpoint")
        v = Fraction(int(man)) * (Fraction(2) ** int(exp))
        return -v if sign else v

    lo_raw, hi_raw = x._mpi_
    return conv(lo_raw), conv(hi_raw)


def mpmath_cos_enclosure(iv, theta: Fraction, prec: int):
    """mpmath's enclosure of 2cos(2*pi*theta) at `prec` bits."""
    iv.prec = prec
    x = iv.mpf(theta.numerator) / theta.denominator
    return _iv_to_fractions(2 * iv.cos(2 * iv.pi * x))


def bisection_theta_enclosure(iv, a: Fraction, b: Fraction, iters: int):
    """The bisecting _theta_enclosure, on mpmath cosines at 80 + 20k bits."""

    def cos_cmp(t, x):
        exact = signatures._NIVEN_X.get(t)
        if exact is not None:
            return (exact > x) - (exact < x)
        for k in range(40):
            lo, hi = mpmath_cos_enclosure(iv, t, 80 + 20 * k)
            if lo > x:
                return 1
            if hi < x:
                return -1
        raise SignatureError("certified cosine comparison did not resolve")

    def locate(x):
        lo, hi = Fraction(0), Fraction(1, 2)
        for _ in range(iters):
            mid = (lo + hi) / 2
            s = cos_cmp(mid, x)
            if s > 0:
                lo = mid
            elif s < 0:
                hi = mid
            else:
                return mid, mid
        return lo, hi

    return locate(b)[0], locate(a)[1]


def test_pi_bounds_bracket_pi():
    # mpmath's interval pi at 300 bits when it imports; else math.pi, within
    # 2^-51 of pi, at 50 bits
    try:
        import mpmath
    except ImportError:
        bits, eps = 50, Fraction(1, 2 ** 51)
        ref_lo, ref_hi = Fraction(math.pi) - eps, Fraction(math.pi) + eps
    else:
        iv = mpmath.ctx_iv.MPIntervalContext()
        iv.prec = bits = 300
        ref_lo, ref_hi = _iv_to_fractions(iv.pi)
    lo, hi = signatures._pi_bounds(bits)
    assert Fraction(lo, 2 ** bits) <= ref_lo <= ref_hi <= Fraction(hi, 2 ** bits)
    assert 0 < hi - lo < 2 ** signatures._GUARD
    assert signatures._pi_bounds(bits) is signatures._pi_bounds(bits)


def test_integer_cosine_contains_mpmath_enclosure(mp_iv, rng):
    thetas = [Fraction(0), Fraction(1, 2), Fraction(1, 6), Fraction(1, 4),
              Fraction(1, 3)]
    while len(thetas) < 505:
        den = rng.randint(2, 10 ** rng.randint(1, 30))
        thetas.append(Fraction(rng.randint(0, den // 2), den))
    points = 0
    for theta in thetas:
        ref_lo, ref_hi = mpmath_cos_enclosure(mp_iv, theta, 400)
        for extra in range(6):
            lo, hi = _cos_enclosure(theta, extra)
            assert hi - lo < Fraction(1, 2 ** (78 + 20 * extra))
            if lo == hi:
                # the exact values 2cos(0) = 2 and 2cos(pi) = -2
                assert ref_lo <= lo <= ref_hi
                points += 1
            else:
                assert lo <= ref_lo and ref_hi <= hi, (theta, extra)
    assert _cos_enclosure(Fraction(0)) == (2, 2)
    assert _cos_enclosure(Fraction(1, 2)) == (-2, -2)
    assert points >= 12


def test_theta_enclosure_matches_bisection(mp_iv, rng):
    for iters in range(1, 131):
        den = 10 ** rng.randint(1, 25)
        a = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        b = a if rng.random() < 0.5 else min(
            a + Fraction(rng.randint(1, 9), 10 ** rng.randint(1, 40)),
            Fraction(2 * den - 1, den))
        assert _theta_enclosure(a, b, iters) == \
            bisection_theta_enclosure(mp_iv, a, b, iters), (a, b, iters)
        # theta(0) = 1/4 is the first midpoint: an exact hit
        zero = Fraction(0)
        assert _theta_enclosure(zero, zero, iters) == (Fraction(1, 4),) * 2
        assert bisection_theta_enclosure(mp_iv, zero, zero, iters) == \
            (Fraction(1, 4),) * 2
    assert _theta_enclosure(Fraction(0), Fraction(0), 0) == \
        (Fraction(0), Fraction(1, 2))


def test_theta_enclosure_does_not_rest_on_the_guess(mp_iv, rng, monkeypatch):
    # a guess some cells off, or at either end of [0, 1/2], costs steps to
    # other cells but never changes the certified cell
    guess = signatures._angle_guess
    for iters in range(1, 131):
        if iters > 24 and iters % 7:
            continue
        shift = Fraction(rng.randint(-5, 5), 2 ** (iters + 1))
        wild = rng.choice((Fraction(0), Fraction(1, 2)))
        den = 10 ** rng.randint(1, 12)
        x = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        for y in (x, Fraction(0), Fraction(-1)):
            expected = bisection_theta_enclosure(mp_iv, y, y, iters)
            for bad in (lambda z, bits: guess(z, bits) + shift,
                        lambda z, bits: wild):
                monkeypatch.setattr(signatures, "_angle_guess", bad)
                assert _theta_enclosure(y, y, iters) == expected, (y, iters)


def test_rho0_matches_bisection_oracle(mp_iv, rng, monkeypatch):
    values = []
    for _ in range(50):
        sf = signature_function(random_seifert(rng, genus=rng.randint(1, 5)))
        values.append((sf, rho0_from_signature(sf)))
    monkeypatch.setattr(signatures, "_theta_enclosure",
                        lambda a, b, iters: bisection_theta_enclosure(
                            mp_iv, a, b, iters))
    for sf, value in values:
        assert rho0_from_signature(sf) == value
    assert sum(value.const_lo < value.const_hi for _, value in values) >= 12


class _FrozenIV:
    """Stands in for mpmath.iv: reads go to the real context, and every
    assignment raises."""

    def __init__(self, real):
        object.__setattr__(self, "_real", real)

    def __getattr__(self, name):
        return getattr(self._real, name)

    def __setattr__(self, name, value):
        raise AttributeError(f"mpmath.iv.{name} is process-wide state")


def test_cos_enclosure_leaves_global_mpmath_alone(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    prec = mpmath.iv.prec
    monkeypatch.setattr(mpmath, "iv", _FrozenIV(mpmath.iv))
    theta = Fraction(1, 7)
    exact = 2 * math.cos(2 * math.pi / 7)
    coarse = signatures._cos_enclosure(theta)
    fine = signatures._cos_enclosure(theta, extra=3)
    for lo, hi in (coarse, fine):
        assert lo <= Fraction(exact) + Fraction(1, 10**12)
        assert Fraction(exact) - Fraction(1, 10**12) <= hi
    assert fine[1] - fine[0] < coarse[1] - coarse[0] < Fraction(1, 2**70)
    assert mpmath.iv.prec == prec


# -- root isolation helpers ----------------------------------------------------------


def test_isolate_roots_basic():
    # (x-1)(x+1)x has roots -1, 0, 1
    p = LaurentPoly({1: -1, 3: 1})
    roots = isolate_roots(p, Fraction(-2), Fraction(2))
    assert len(roots) == 3
    for (a, b), target in zip(roots, (-1, 0, 1)):
        assert a <= target <= b


def below(x, root):
    """Whether x < root exactly, for a rational root or a pair (b, D, s)
    standing for the root (-b + s*sqrt(D))/2 of t^2 + bt + (b^2 - D)/4."""
    if isinstance(root, Fraction):
        return x < root
    b, D, s = root
    y = 2 * x + b
    return (y < 0 or y * y < D) if s > 0 else (y < 0 and y * y > D)


def test_isolate_roots_of_random_products(rng):
    t = LaurentPoly.var("t")
    lo, hi = Fraction(-3), Fraction(2)  # both often roots themselves
    for _ in range(150):
        p, roots = LaurentPoly.one("t"), []
        for r in {Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                  for _ in range(rng.randint(0, 3))}:
            p *= t - r
            roots.append(r)
        quadratics = set()
        while len(quadratics) < rng.randint(0, 2):
            b = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            D = Fraction(rng.randint(-20, 40), rng.randint(1, 4))
            if D < 0 or math.isqrt(D.numerator) ** 2 != D.numerator or \
                    math.isqrt(D.denominator) ** 2 != D.denominator:
                quadratics.add((b, D))  # irreducible over Q
        for b, D in quadratics:
            p *= t * t + b * t + (b * b - D) / 4
            if D > 0:
                roots += [(b, D, -1), (b, D, 1)]
        if p.degree == 0:
            continue
        inside = [r for r in roots if below(lo, r) and not below(hi, r)]
        intervals = isolate_roots(p, lo, hi)
        assert len(intervals) == len(inside)
        assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
        for a, b2 in intervals:
            if a == b2:
                hits = [r for r in inside if r == a]
            else:
                hits = [r for r in inside if below(a, r) and not below(b2, r)]
                # only the window's own lower end may be a root
                assert (a == lo or p.evaluate(a) != 0) and p.evaluate(b2) != 0
            assert len(hits) == 1


def test_cos_minimal_polynomials():
    t = LaurentPoly.var("t")
    assert cos_minimal_polynomial(6) == t - 1
    assert cos_minimal_polynomial(4) == t
    assert cos_minimal_polynomial(3) == t + 1
    assert cos_minimal_polynomial(5) == t * t + t - 1
    assert cos_minimal_polynomial(12) == t * t - 3


def test_cyclotomic_index_matches_table(rng):
    # a table of every minimal polynomial up to 300, keyed by the
    # polynomial: the search bound 8 (deg psi)^2 reaches every index
    t = LaurentPoly.var("t")
    table = {cos_minimal_polynomial(n): n for n in range(3, 301)}
    factors = []
    for psi, n in table.items():
        assert _euler_phi(n) == sum(math.gcd(k, n) == 1 for k in range(n))
        factors += [psi, psi * Fraction(-3, 2), psi.shift(2)]
    for _ in range(20):
        q = circle_polynomial(alexander_polynomial(
            random_seifert(rng, genus=rng.choice([1, 2]))))
        if q.span:
            factors += [f for f, _mult in factor_laurent(q)]
    factors += [t * t - 2, t * t * t - 3 * t + 1, 2 * t - 3]
    hits = 0
    for psi in factors:
        n = _cyclotomic_index(psi)
        assert n == table.get(psi.monic())
        hits += n is not None
    assert hits >= 3 * 297
    # Phi_126 has x-degree 18, the least of any index above 120: a fixed
    # bound of 120 would give its jumps as intervals
    assert min(psi.span for psi, n in table.items() if n > 120) == 18
    assert _cyclotomic_index(circle_polynomial(cyclotomic(126)) * 7) == 126
