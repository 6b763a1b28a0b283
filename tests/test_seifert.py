import itertools

import pytest

from rhoslice import seifert
from rhoslice.obstruction import Companion, InfectedKnot, ObstructionError
from rhoslice.polyalg import LaurentPoly, equal_up_to_unit
from rhoslice.seifert import (
    PatternKnot,
    RhoExpr,
    SeifertError,
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    knot_transform,
    metabolizer_search,
    pattern_9_46,
    trefoil_left,
    trefoil_right,
    unknot,
)

from conftest import random_seifert

R = SeifertMatrix([[0, 1], [2, 0]])


def det_oracle(rows):
    """Determinant by full permutation expansion (slow, independent)."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one("t")
    total = LaurentPoly.zero(rows[0][0].variable)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = LaurentPoly.one(rows[0][0].variable)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


# -- constructors and validation ---------------------------------------------


def test_rejects_bad_matrices():
    with pytest.raises(SeifertError, match="square"):
        SeifertMatrix([[0, 1]])
    with pytest.raises(SeifertError, match="even"):
        SeifertMatrix([[1]])
    with pytest.raises(SeifertError, match="±1"):
        SeifertMatrix([[0, 1], [1, 0]])


def test_unknot_is_empty():
    assert unknot().dim == 0


# -- transforms ---------------------------------------------------------------


def test_transforms_spec_values():
    assert knot_transform(R, "reverse").rows == ((0, 2), (1, 0))
    tr = trefoil_right()
    assert knot_transform(knot_transform(tr, "reverse"), "mirror") == \
        knot_transform(tr, "inverse")
    assert knot_transform(tr, "inverse").rows == ((1, 0), (-1, 1))
    assert knot_transform(unknot(), "inverse").dim == 0


def test_transforms_involutive(rng):
    for _ in range(10):
        V = random_seifert(rng, genus=rng.choice([1, 2]))
        for op in ("mirror", "reverse", "inverse"):
            assert knot_transform(knot_transform(V, op), op) == V


def test_unknown_transform():
    with pytest.raises(SeifertError):
        knot_transform(R, "rotate")


# -- connected sums -----------------------------------------------------------


def test_connected_sum_identity_and_blocks():
    tr = trefoil_right()
    assert connected_sum([unknot(), tr]) == tr
    both = connected_sum([R, knot_transform(R, "inverse")])
    assert both.dim == 4
    assert both.rows[0][:2] == (0, 1) and both.rows[2][2:] == (0, -2)


def test_connected_sum_empty_rejected():
    with pytest.raises(SeifertError):
        connected_sum([])


def test_connected_sum_stays_valid(rng):
    for _ in range(10):
        V = random_seifert(rng)
        W = random_seifert(rng)
        connected_sum([V, W])  # constructor checks det(V - V^T) = ±1


# -- Alexander polynomial ------------------------------------------------------


def test_alexander_spec_values():
    t = LaurentPoly.var("t")
    assert alexander_polynomial(R) == (2 * t - 1) * (t - 2)
    assert alexander_polynomial(trefoil_right()) == t * t - t + 1
    assert alexander_polynomial(unknot()).is_one()


def test_alexander_against_det_oracle(rng):
    for _ in range(8):
        V = random_seifert(rng, genus=rng.choice([1, 2]))
        direct = det_oracle(V.presentation("t"))
        assert equal_up_to_unit(alexander_polynomial(V), direct)


def test_alexander_symmetries(rng):
    for _ in range(8):
        V = random_seifert(rng, genus=rng.choice([1, 2]))
        d = alexander_polynomial(V)
        assert equal_up_to_unit(alexander_polynomial(knot_transform(V, "mirror")), d)
        assert equal_up_to_unit(
            alexander_polynomial(knot_transform(V, "reverse")), d.conj())


def test_alexander_multiplicative(rng):
    for _ in range(6):
        V, W = random_seifert(rng), random_seifert(rng)
        assert equal_up_to_unit(
            alexander_polynomial(connected_sum([V, W])),
            alexander_polynomial(V) * alexander_polynomial(W))


def test_alexander_rejects_non_integer_interpolant(monkeypatch):
    # determinant values 0, 0, 1 at k = 0, 1, 2 interpolate to k(k - 1)/2,
    # which no integer determinant can give
    values = iter([0, 0, 1])
    monkeypatch.setattr(seifert, "det_int", lambda rows: next(values))
    with pytest.raises(SeifertError, match="integer polynomial"):
        alexander_polynomial(R)


def test_alexander_at_one_is_unit(rng):
    for V in [R, trefoil_right(), trefoil_left()] + \
            [random_seifert(rng, genus=g) for g in (1, 1, 2, 2)]:
        assert abs(alexander_polynomial(V).evaluate(1)) == 1


# -- metabolizer search --------------------------------------------------------


def test_metabolizer_spec_values():
    assert metabolizer_search(R) == (1, 0)
    assert metabolizer_search(trefoil_right()) is None
    # the c = 0 branch, and a root of 2x^2 + 5xy + 2y^2
    assert metabolizer_search(SeifertMatrix([[1, 2], [1, 0]])) == (0, 1)
    assert metabolizer_search(SeifertMatrix([[2, 3], [2, 2]])) == (1, -2)


def test_metabolizer_exactness(rng):
    found = 0
    for _ in range(40):
        V = random_seifert(rng)
        v = metabolizer_search(V)
        if v is None:
            # anisotropic: no zero among small vectors either
            for x in range(-6, 7):
                for y in range(-6, 7):
                    if (x, y) != (0, 0):
                        val = (V[0, 0] * x * x + (V[0, 1] + V[1, 0]) * x * y
                               + V[1, 1] * y * y)
                        assert val != 0
            continue
        found += 1
        x, y = v
        assert V[0, 0] * x * x + (V[0, 1] + V[1, 0]) * x * y + V[1, 1] * y * y == 0
        from math import gcd
        assert gcd(abs(x), abs(y)) == 1
    assert found > 0


def test_metabolizer_dimension_guard():
    with pytest.raises(SeifertError, match="2x2"):
        metabolizer_search(connected_sum([R, R]))


# -- patterns -------------------------------------------------------------------


def test_pattern_validation():
    t = LaurentPoly.constant(1, "s")
    z = LaurentPoly.constant(0, "s")
    with pytest.raises(SeifertError, match="unique"):
        PatternKnot(R, (("a", (t, z)), ("a", (z, t))))
    with pytest.raises(SeifertError, match="coordinates"):
        PatternKnot(R, (("a", (t,)),))


def test_builtin_pattern():
    p = pattern_9_46()
    assert p.curve_names() == ["alpha", "beta"]
    assert p.curve_vector("alpha")[0].is_one()
    q = p.transform("inverse")
    assert q.seifert == knot_transform(p.seifert, "inverse")
    assert q.curve_names() == ["alpha", "beta"]


def test_rho0_value_refuses_an_empty_interval():
    # every companion enters the engine through InfectedKnot.build, so an
    # inverted interval, which could make a cell look nonzero, stops there
    for curve in ("alpha", "beta"):
        with pytest.raises(ObstructionError, match="empty interval"):
            InfectedKnot.build(pattern_9_46(),
                               {curve: Companion("J", RhoExpr(1, -1))})
        knot = InfectedKnot.build(pattern_9_46(),
                                  {curve: Companion("J", RhoExpr(1, 1))})
        assert knot.companion(curve) == ("J", RhoExpr(1, 1))
