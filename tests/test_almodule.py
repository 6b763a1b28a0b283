import pickle
from fractions import Fraction

import pytest

from rhoslice.almodule import (
    AlexanderModule,
    ModuleError,
    _decompose,
    Summand,
    alexander_module,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
    reverse_module,
    smith_normal_form,
)
from rhoslice.polyalg import LaurentPoly, divides, equal_up_to_unit
from rhoslice.seifert import (
    PatternKnot,
    connected_sum,
    pattern_9_46,
    trefoil_right,
    unknot,
)
from rhoslice.submodule import Submodule, rref

from conftest import (
    poly_mat_mul,
    random_laurent,
    random_seifert,
    smith_with_u,
    snf_is_valid,
)
from sweep_oracle import reparametrize

T = LaurentPoly.var("t")
S = LaurentPoly.var("s")
ZERO = LaurentPoly.zero("t")


# -- Smith normal form --------------------------------------------------------


def test_snf_spec_presentation():
    A = [[ZERO, T - 2], [2 * T - 1, ZERO]]
    U, D, W = smith_with_u(A)
    snf_is_valid(A, U, D, W)
    assert D[0][0].is_one()
    assert equal_up_to_unit(D[1][1], (T - 2) * (2 * T - 1))


def test_snf_trivial_and_repeated():
    assert smith_with_u([[LaurentPoly.one("t")]])[1] == [[LaurentPoly.one("t")]]
    A = [[T - 2, ZERO], [ZERO, T - 2]]
    U, D, W = smith_with_u(A)
    snf_is_valid(A, U, D, W)
    assert D[0][0] == T - 2 and D[1][1] == T - 2


def test_snf_random(rng):
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        m = rng.choice([1, 2, 3])
        A = [[random_laurent(rng, "t", max_deg=2, min_exp=-1)
              for _ in range(m)] for _ in range(n)]
        snf_is_valid(A, *smith_with_u(A))


def test_snf_of_presentations_and_default_generators(rng):
    # U maps each default generator of `_decompose` to its cofactor times
    # the unit vector of its invariant factor, as U * U^{-1} = I did; the
    # Smith form is deterministic, so U is the one `_decompose` used.  The
    # pattern 9_46 is decomposed as a pattern, its curves adopted as
    # generators, whose images are U times the curves
    knots = [pattern_9_46(), pattern_9_46().seifert, trefoil_right(),
             connected_sum([pattern_9_46().seifert, pattern_9_46().seifert,
                            trefoil_right()])]
    knots += [random_seifert(rng, genus=g) for g in (1, 1, 1, 2, 2, 2, 3, 3)]
    defaults = 0
    for V in knots:
        dec = _decompose(V)
        seifert = V.seifert if isinstance(V, PatternKnot) else V
        A = [list(col) for col in zip(*seifert.presentation("s"))]
        snf_is_valid(A, *smith_with_u(A), dec=dec)
        defaults += dec.module.rank
    assert defaults >= 12


def test_snf_carries_u_times_c(rng):
    # the rows of C take U's row operations, and nothing else changes: the
    # carried matrix is U*C for the U carried from the identity
    nonzero = 0
    for genus in (1, 1, 2, 2, 3, 4):
        V = random_seifert(rng, genus=genus)
        A = [list(col) for col in zip(*V.presentation("s"))]
        U, D, W = smith_with_u(A)
        for cols in (0, 1, 2):
            C = [[random_laurent(rng, "s", max_deg=2, min_exp=-1)
                  for _ in range(cols)] for _ in A]
            UC, D2, W2 = smith_normal_form(A, C)
            assert UC == poly_mat_mul(U, C) and len(UC) == len(A)
            assert (D2, W2) == (D, W)
            nonzero += any(not x.is_zero() for row in C for x in row)
    assert nonzero >= 10


def test_snf_empty_rejected():
    with pytest.raises(ModuleError):
        smith_normal_form([], [])
    with pytest.raises(ModuleError, match="one row of C per row"):
        smith_normal_form([[T]], [])


# -- module decomposition -------------------------------------------------------


def test_module_spec_values():
    M = alexander_module(pattern_9_46())
    anns = [str(a) for a in M.annihilator_multiset()]
    assert anns == ["s - 2", "s - 1/2"]
    assert {s.label for s in M.summands} == {"alpha", "beta"}
    alpha = next(s for s in M.summands if s.label == "alpha")
    assert equal_up_to_unit(alpha.annihilator, 2 * S - 1)

    Mt = alexander_module(trefoil_right())
    assert [str(s.annihilator) for s in Mt.summands] == ["s^2 - s + 1"]

    assert alexander_module(unknot()).is_trivial()


def test_module_order_matches_alexander(rng):
    from rhoslice.seifert import alexander_polynomial

    for _ in range(10):
        V = random_seifert(rng, genus=rng.choice([1, 2]))
        M = alexander_module(V)
        assert equal_up_to_unit(M.order(),
                                alexander_polynomial(V, "s"))


def test_connected_sum_module_is_direct_sum(rng):
    for _ in range(6):
        V, W = random_seifert(rng), random_seifert(rng)
        both = alexander_module(connected_sum([V, W]))
        parts = alexander_module(V).annihilator_multiset() + \
            alexander_module(W).annihilator_multiset()
        assert sorted(map(str, both.annihilator_multiset())) == \
            sorted(map(str, parts))


# -- reparametrization (the base-change oracle) -----------------------------------


def test_reparametrize_spec_values():
    M = alexander_module(pattern_9_46())
    M2, bc = reparametrize(M, 2)
    assert sorted(str(s.annihilator) for s in M2.summands) == \
        ["t^2 - 1/2", "t^2 - 2"]
    assert M2.dim_q() == 2 * M.dim_q()
    assert M2.complexity == 2

    M1, _ = reparametrize(M, 1)
    assert [str(s.annihilator) for s in M1.summands] == \
        [str(s.annihilator).replace("s", "t") for s in M.summands]

    # splitting case (not realized by a knot; algebra-level behavior)
    Ms = AlexanderModule("s", 1, (Summand(S - 1, S - 1, 1, "x"),))
    M3, bc3 = reparametrize(Ms, 2)
    assert {str(s.annihilator) for s in M3.summands} == {"t - 1", "t + 1"}
    x = Ms.element([1])
    moved = bc3.transport(x)
    assert not moved.is_zero()
    assert all(not c.is_zero() for c in moved.coords)


def test_reparametrize_dimension_multiplies(rng):
    for c in (2, 3, 4):
        M = alexander_module(random_seifert(rng))
        Mc, _ = reparametrize(M, c)
        assert Mc.dim_q() == c * M.dim_q()


def test_reparametrize_guards():
    M = alexander_module(pattern_9_46())
    with pytest.raises(ModuleError):
        reparametrize(M, 0)
    M2, _ = reparametrize(M, 2)
    with pytest.raises(ModuleError):
        reparametrize(M2, 2)


# -- reversal ---------------------------------------------------------------------


def test_reverse_module_spec_values():
    M = alexander_module(pattern_9_46())
    rev = reverse_module(M)
    assert sorted(str(s.annihilator) for s in rev.summands) == \
        sorted(str(s.annihilator) for s in M.summands)
    alpha = next(s for s in rev.summands if s.label == "alpha")
    assert equal_up_to_unit(alpha.annihilator, S - 2)  # 2s-1 <-> s-2

    Mt = alexander_module(trefoil_right())
    assert reverse_module(Mt) == Mt  # palindromic annihilator

    assert reverse_module(alexander_module(unknot())).is_trivial()


def test_reverse_involutive(rng):
    for _ in range(8):
        M = alexander_module(random_seifert(rng, genus=rng.choice([1, 2])))
        assert reverse_module(reverse_module(M)) == M


# -- isotypic structure -------------------------------------------------------------


def _sum_module():
    M = alexander_module(pattern_9_46())
    return direct_sum([M, reverse_module(M)],
                      relabel=lambda i, l: f"{l}{i + 1}")


def test_isotypic_classes():
    L = _sum_module()
    classes = isotypic_decompose(L)
    assert len(classes) == 2
    by_prime = {str(p): sorted(L.summands[i].label for i in idx)
                for p, idx in classes.items()}
    assert by_prime["s - 1/2"] == ["alpha1", "beta2"]
    assert by_prime["s - 2"] == ["alpha2", "beta1"]

    single = alexander_module(trefoil_right())
    assert len(isotypic_decompose(single)) == 1


def test_reduce_to_isotypic():
    L = _sum_module()
    x = L.element([1, 1, 1, 1])
    red = reduce_to_isotypic(x, 2 * S - 1)
    classes = isotypic_decompose(L)
    target = classes[(2 * S - 1).monic()]
    for i, c in enumerate(red.coords):
        assert c.is_zero() == (i not in target)
    # and nonzero p-part survives iff it was nonzero
    y = L.element([0, 1, 1, 0])
    red_y = reduce_to_isotypic(y, 2 * S - 1)
    assert [not c.is_zero() for c in red_y.coords] == \
        [i in target and not y.coords[i].is_zero() for i in range(4)]


def test_reduce_to_isotypic_missing_prime():
    M = alexander_module(trefoil_right())
    with pytest.raises(ModuleError):
        reduce_to_isotypic(M.element([1]), S - 2)


# -- submodules -----------------------------------------------------------------------


def test_submodule_membership():
    M = alexander_module(pattern_9_46())
    alpha = M.generator_by_label("alpha")
    P = Submodule(M, [alpha])
    assert P.dim_q() == 1
    assert P.contains(alpha.scale(7))
    assert P.contains(alpha.scale(LaurentPoly.var("s")))
    assert not P.contains(M.generator_by_label("beta"))
    assert Submodule(M, []).is_zero()


def _rank(rows):
    return len(rref(rows)[0]) if rows else 0


def test_submodule_membership_matches_rank(rng):
    # oracle: x is in P iff appending x to the Q-basis of P keeps the rank
    M = direct_sum([alexander_module(pattern_9_46())] * 2,
                   relabel=lambda i, l: f"{l}{i}")
    for _ in range(30):
        gens = [M.from_q_coords([Fraction(rng.randint(-1, 1)) for _ in range(M.dim_q())])
                for _ in range(rng.randint(0, 2))]
        P = Submodule(M, gens)
        x = M.from_q_coords([Fraction(rng.randint(-1, 1)) for _ in range(M.dim_q())])
        assert M.from_q_coords(x.q_coords()) == x
        rows = P.q_basis()
        expect = _rank(rows + [x.q_coords()]) == _rank(rows)
        assert P.contains(x) == expect
        assert P.contains_submodule(Submodule(M, [x])) == expect


def test_equal_elements_of_equal_modules_hash_alike():
    # two builds of one module, and a pickle round trip, give equal
    # modules that are distinct objects
    x = alexander_module(pattern_9_46()).generator(0)
    y = alexander_module(pattern_9_46()).generator(0)
    z = pickle.loads(pickle.dumps(x))
    assert x.module is not y.module and x.module is not z.module
    assert x == y == z
    assert len({x, y}) == 1 and len({x, z}) == 1
    assert {x: 1}[z] == 1


def test_module_element_arithmetic():
    M = alexander_module(pattern_9_46())
    a = M.generator_by_label("alpha")
    b = M.generator_by_label("beta")
    assert (a + b - a) == b
    # alpha is (2s-1)-torsion
    assert a.scale(2 * S - 1).is_zero()
    assert not a.scale(S - 2).is_zero()
    assert (a.scale(3) + a.scale(-3)).is_zero()
    # the coordinate count is checked before the coordinates meet the
    # summands, so an extra coordinate is refused, not dropped
    assert M.element((1, 2)) == M.generator(0) + M.generator(1).scale(2)
    for coords in ((1, 2, 3), (1,), ()):
        with pytest.raises(ModuleError, match="coordinate count mismatch"):
            M.element(coords)
