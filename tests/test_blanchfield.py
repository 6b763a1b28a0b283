import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rhoslice import almodule, submodule
from rhoslice.almodule import (
    FracCoset,
    ModuleElement,
    alexander_module,
    coset_reduce,
    direct_sum,
)
from rhoslice.blanchfield import (
    FormError,
    LinkingForm,
    _cyclic_nonsingular,
    blanchfield_form,
)
from rhoslice.factor import capelli_certified
from rhoslice.polyalg import LaurentPoly, gcd_laurent, reduce_mod
from rhoslice.seifert import (
    PatternKnot,
    SeifertMatrix,
    connected_sum,
    pattern_9_46,
    trefoil_right,
    unknot,
)
from rhoslice.submodule import (
    Submodule,
    _coset_mod_order,
    _epsilon_values,
    annihilator_submodule,
    is_self_annihilating,
)

from conftest import (
    cofactor_adjugate,
    cofactor_det,
    hyperbolic_form,
    pairwise_inverse_form,
    project_oracle,
    random_laurent,
    random_seifert,
    smith_with_u,
)
from sweep_oracle import basechange_form, direct_sum_forms

S = LaurentPoly.var("s")


@pytest.fixture(scope="module")
def form_946():
    return blanchfield_form(pattern_9_46())


# -- the 9_46 facts -----------------------------------------------------------


def test_946_pairings(form_946):
    B, dec = form_946
    a = B.module.generator_by_label("alpha")
    b = B.module.generator_by_label("beta")
    assert B.pairing(a, a).is_zero()
    assert B.pairing(b, b).is_zero()
    ab = B.pairing(a, b)
    assert not ab.is_zero()
    assert ab == coset_reduce(1 - S, 2 * S - 1)


def test_unknot_form_empty():
    B, _ = blanchfield_form(unknot())
    assert B.module.is_trivial()
    assert B.gram == ()


def test_trefoil_anisotropic():
    B, _ = blanchfield_form(trefoil_right())
    e = B.module.generator(0)
    assert not B.pairing(e, e).is_zero()


# -- form invariants -----------------------------------------------------------


def _check_invariants(B):
    n = B.module.rank
    for i in range(n):
        for j in range(n):
            assert B.gram[j][i] == B.gram[i][j].conj()
            ann_i = B.module.summands[i].annihilator
            ann_j = B.module.summands[j].annihilator
            assert B.gram[i][j].scale(ann_i).is_zero()
            assert B.gram[i][j].scale(ann_j.conj()).is_zero()
    whole = Submodule(B.module, [B.module.generator(i) for i in range(n)])
    assert annihilator_submodule(B, whole).is_zero()


def test_invariants_on_builtins_and_random(rng):
    mats = [pattern_9_46().seifert, trefoil_right()]
    mats += [random_seifert(rng, genus=1) for _ in range(12)]
    mats += [random_seifert(rng, genus=2) for _ in range(8)]
    for V in mats:
        B, _ = blanchfield_form(V)
        _check_invariants(B)


def test_coprime_primary_orthogonality(rng):
    # pairings between summands with coprime annihilator classes vanish;
    # for 9_46 this forces the diagonal to be zero
    for V in [pattern_9_46().seifert] + [random_seifert(rng) for _ in range(8)]:
        B, _ = blanchfield_form(V)
        for i, si in enumerate(B.module.summands):
            for j, sj in enumerate(B.module.summands):
                conj_base = sj.base.conj().monic()
                if gcd_laurent(si.base, conj_base).is_one():
                    assert B.pairing(B.module.generator(i),
                                     B.module.generator(j)).is_zero()


def test_validation_failure_is_loud():
    B, _ = blanchfield_form(pattern_9_46())
    bad_rows = [list(r) for r in B.gram]
    bad_rows[0][1] = bad_rows[0][1].scale(2)  # breaks hermitian symmetry
    bad = LinkingForm(B.module, tuple(tuple(r) for r in bad_rows))
    with pytest.raises(FormError, match="hermitian"):
        bad.validate()


def test_unannihilated_hermitian_form_is_rejected(form_946):
    # hermitian, but 1/(2s - 1)^2 is not killed by alpha's annihilator 2s - 1
    B, _ = form_946
    g01 = coset_reduce(LaurentPoly.one("s"), (2 * S - 1) ** 2)
    rows = [list(r) for r in B.gram]
    rows[0][1], rows[1][0] = g01, g01.conj()
    bad = LinkingForm(B.module, tuple(tuple(r) for r in rows))
    with pytest.raises(FormError, match="does not kill"):
        bad.validate()


def _oracle_gram(V, dec):
    """(1 - v) g_i^T adj(P) conj(g_j) / det(P), P = vV - V^T, with the
    adjugate and determinant by cofactor expansion."""
    pres = V.presentation("s")
    adj, det = cofactor_adjugate(pres), cofactor_det(pres)
    n = V.dim
    rows = []
    for gi in dec.gen_coords:
        row = []
        for gj in dec.gen_coords:
            acc = sum((gi[a] * adj[a][b] * gj[b].conj()
                       for a in range(n) for b in range(n)),
                      LaurentPoly.zero("s"))
            row.append(coset_reduce((1 - S) * acc, det))
        rows.append(tuple(row))
    return tuple(rows)


def test_gram_matches_adjugate_oracle(rng):
    patterns = [pattern_9_46()]
    for n in (1, 2, 3):
        V = SeifertMatrix([[0, n], [n + 1, 0]])
        patterns.append(PatternKnot.from_int_vectors(
            V, {"alpha": (1, 0), "beta": (0, 1)}, name=f"p{n}"))
    patterns += [p.transform("inverse") for p in patterns]
    # sums with a repeated summand have two non-unit invariant factors
    R, T3 = pattern_9_46().seifert, trefoil_right()
    sums = [connected_sum([R, R, T3]), connected_sum([T3, R, T3])]
    knots = patterns + sums + [random_seifert(rng, genus=g)
                               for g in (1, 1, 1, 1, 2, 2, 2, 2, 3, 3)]
    curve_labelled = 0
    for K in knots:
        B, dec = blanchfield_form(K)
        V = K.seifert if isinstance(K, PatternKnot) else K
        assert B.gram == _oracle_gram(V, dec)
        curve_labelled += sum(s.label in ("alpha", "beta")
                              for s in B.module.summands)
    assert curve_labelled >= 2 * len(patterns)


def _labelled_patterns():
    """9_46, the patterns [[0, n], [n + 1, 0]] with curves on the two
    generators, and their reverses."""
    patterns = [pattern_9_46()]
    for n in (1, 2, 3, 4):
        V = SeifertMatrix([[0, n], [n + 1, 0]])
        patterns.append(PatternKnot.from_int_vectors(
            V, {"alpha": (1, 0), "beta": (0, 1)}, name=f"p{n}"))
    return patterns + [p.transform("inverse") for p in patterns]


def test_gram_matches_pairwise_inverse_form():
    # the Gram matrix, U and W^T applied once per generator and only at the
    # non-unit invariant factors, against the pairwise sum over every d_i of
    # a fresh Smith form
    rng = random.Random(2323)
    knots = _labelled_patterns() + [random_seifert(rng, genus=1 + k % 4)
                                    for k in range(100)]
    nontrivial = 0
    for K in knots:
        B, dec = blanchfield_form(K)
        V = K.seifert if isinstance(K, PatternKnot) else K
        U, D, W = smith_with_u([list(col) for col in zip(*V.presentation("s"))])
        oracle = tuple(
            tuple(pairwise_inverse_form(U, D, W, [(1 - S) * c for c in gi],
                                        [c.conj() for c in gj])
                  for gj in dec.gen_coords)
            for gi in dec.gen_coords)
        assert B.gram == oracle
        nontrivial += not B.module.is_trivial()
    assert nontrivial >= 80


def test_gram_applies_each_transform_once_per_generator(monkeypatch):
    # building a form applies W^T once per generator and never forms U: the
    # Smith form carries one column per pattern curve, none for a bare
    # Seifert matrix
    applied, carried = [], []
    real_apply, real_snf = almodule.poly_mat_apply, almodule.smith_normal_form

    def spy_apply(matrix, vec):
        applied.append(matrix)
        return real_apply(matrix, vec)

    def spy_snf(A, C):
        carried.append(C)
        return real_snf(A, C)

    monkeypatch.setattr(almodule, "poly_mat_apply", spy_apply)
    monkeypatch.setattr(almodule, "smith_normal_form", spy_snf)
    rng = random.Random(2324)
    knots = _labelled_patterns() + [random_seifert(rng, genus=g)
                                    for g in (1, 2, 2, 3, 3, 4)]
    for K in knots:
        applied.clear()
        carried.clear()
        B, dec = blanchfield_form(K)
        V, curves = ((K.seifert, len(K.curves)) if isinstance(K, PatternKnot)
                     else (K, 0))
        assert sum(m is dec.wtmatrix for m in applied) == B.module.rank
        assert len(dec.wtmatrix) == len(dec.invariants) <= B.module.rank
        assert [len(C) for C in carried] == [V.dim]
        assert all(len(row) == curves for row in carried[0])
        assert all(len(u) == len(dec.invariants) for u in dec.images)


def _conflicting_pattern():
    """9_46 with one curve named after the default label of the summand it
    does not generate, so labelling would give two summands one name."""
    return PatternKnot.from_int_vectors(pattern_9_46().seifert,
                                        {"g2": (0, 1)}, name="conflict")


def _random_curve_patterns():
    """24 random Seifert matrices of genus 1 to 3, each with curves on two
    basis vectors and on one random integer vector."""
    rng = random.Random(2325)
    patterns = []
    for _ in range(24):
        V = random_seifert(rng, genus=rng.choice((1, 1, 2, 2, 3)))
        unit = [[int(i == j) for i in range(V.dim)] for j in range(V.dim)]
        vectors = rng.sample(unit, min(2, V.dim)) + [
            [rng.randint(-2, 2) for _ in range(V.dim)]]
        patterns.append(PatternKnot.from_int_vectors(
            V, {f"c{k}": vec for k, vec in enumerate(vectors)}))
    return patterns


def test_curve_classes_match_the_projection_oracle():
    # each curve's class, read off the column the Smith form carried for
    # it, against U itself and the cofactor inverses of the final module
    patterns = _labelled_patterns() + _random_curve_patterns()
    labelled = 0
    for K in patterns:
        B, dec = blanchfield_form(K)
        assert list(dec.curve_classes) == K.curve_names()
        for cname, vec in K.curves:
            assert dec.curve_classes[cname] == project_oracle(K.seifert, dec, vec)
        labelled += sum(s.label in dec.curve_classes for s in B.module.summands)
    assert labelled >= 2 * len(_labelled_patterns()) + 10
    # conflicting labels are dropped, and the class keeps the default
    # generator's inverse: g2 = (0, 1) is half the first default generator
    K = _conflicting_pattern()
    B, dec = blanchfield_form(K)
    assert [s.label for s in B.module.summands] == ["g1", "g2"]
    assert dec.curve_classes["g2"] == project_oracle(K.seifert, dec, (0, 1))
    assert dec.curve_classes["g2"].coords == (
        LaurentPoly.constant(Fraction(1, 2), "s"), LaurentPoly.zero("s"))


def test_forms_in_t_are_the_forms_in_s_renamed():
    # a pattern's curves are renamed into the variable asked for, so the
    # module, form and curve classes in t are those in s with s renamed; a
    # curve on the 0x0 pattern is the zero of its trivial module
    empty = PatternKnot(unknot(), (("a", ()),), name="empty")
    patterns = (_labelled_patterns() + _random_curve_patterns()
                + [_conflicting_pattern(), empty])
    for K in patterns:
        B, dec = blanchfield_form(K)
        Bt, dect = blanchfield_form(K, "t")
        assert Bt == B.subs_power(1, "t")
        assert alexander_module(K, "t") == Bt.module
        assert dect.curve_classes == {
            cname: ModuleElement(Bt.module,
                                 tuple(x.rename("t") for x in c.coords))
            for cname, c in dec.curve_classes.items()}
    assert dec.curve_classes == {"a": B.module.zero()}
    assert dect.curve_classes == {"a": Bt.module.zero()}


# -- base change -----------------------------------------------------------------


def test_basechange_spec_values(form_946):
    B, dec = form_946
    B2, bc = basechange_form(B, 2)
    a = bc.transport(dec.curve_classes["alpha"])
    b = bc.transport(dec.curve_classes["beta"])
    t = LaurentPoly.var("t")
    assert B2.pairing(a, b) == coset_reduce(1 - t * t, 2 * t * t - 1)
    assert B2.pairing(a, a).is_zero()
    B1, _ = basechange_form(B, 1)
    assert B1.gram == tuple(
        tuple(z.subs_power(1, "t") for z in row) for row in B.gram)


def _random_element(rng, module):
    coords = []
    for s in module.summands:
        d = s.annihilator.span
        coords.append(LaurentPoly(
            {k: Fraction(rng.randint(-2, 2)) for k in range(d)}, module.variable))
    return module.element(tuple(coords))


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_basechange_law_random(rng, c):
    """Bl_c(x (x) f, y (x) g) = f(t) * h(Bl(x, y)) * g(t^{-1}) on random data."""
    B, dec = blanchfield_form(pattern_9_46())
    Bc, bc = basechange_form(B, c)
    for _ in range(12):
        x = _random_element(rng, B.module)
        y = _random_element(rng, B.module)
        f = random_laurent(rng, "t", max_deg=2, min_exp=-1)
        g = random_laurent(rng, "t", max_deg=2, min_exp=-1)
        lhs = Bc.pairing(bc.transport(x).scale(f), bc.transport(y).scale(g))
        rhs = B.pairing(x, y).subs_power(c, "t").scale(f).scale(g.conj())
        assert lhs == rhs


def test_basechange_commutes_with_direct_sum(rng):
    V, W = random_seifert(rng), random_seifert(rng)
    BV, _ = blanchfield_form(V)
    BW, _ = blanchfield_form(W)
    together = direct_sum_forms([BV, BW], relabel=lambda i, l: f"{l}.{i}")
    c = 3
    changed_sum, _ = basechange_form(together, c)
    BV3, _ = basechange_form(BV, c)
    BW3, _ = basechange_form(BW, c)
    sum_changed = direct_sum_forms([BV3, BW3], relabel=lambda i, l: f"{l}.{i}")
    assert changed_sum.gram == sum_changed.gram
    assert [str(s.annihilator) for s in changed_sum.module.summands] == \
        [str(s.annihilator) for s in sum_changed.module.summands]


def test_subs_power_validates_and_matches_basechange_without_splitting(rng):
    """Substitution keeps a form valid whether or not a summand splits, and
    equals the splitting base change when nothing splits."""
    cases = [(blanchfield_form(pattern_9_46())[0], (1, 2, 3, 5)),
             (blanchfield_form(trefoil_right())[0], (1, 2, 3, 5))]
    # the splitting base change factors p(t^c), up to degree 20 here
    cases += [(blanchfield_form(random_seifert(rng, genus=g))[0], cs)
              for g, cs in ((1, (1, 2, 3, 5)),) * 5 + ((2, (1, 2, 3, 5)),) * 2]
    split = 0
    for B, cs in cases:
        for c in cs:
            Bc = B.subs_power(c, "t")
            Bc.validate()
            assert Bc.module.dim_q() == c * B.module.dim_q()
            assert Bc.module.complexity == c
            old, _ = basechange_form(B, c)
            if old.module.rank == Bc.module.rank:
                assert Bc == old
            else:
                split += 1
    assert split   # the trefoil's t^2 - t + 1 splits at c = 5


# -- substitution t -> t^c as a property ----------------------------------------


T = LaurentPoly.var("t")

# linear primes t - r, and nonlinear ones, none equal to its own reverse;
# the certificate accepts r = 2, -2 and 3/2 and refuses the powers 4, 1/4
# and -8, the members -4 and -4/81 of -4Q^4, and every nonlinear prime
HYPERBOLIC_PRIMES = tuple(T - r for r in (2, -2, Fraction(3, 2), 4,
                                          Fraction(1, 4), -8, -4,
                                          Fraction(-4, 81))) + (
    T * T + 2, T ** 3 - 2, T * T + T + 3)


def _recipe_form(recipe) -> LinkingForm:
    kind, arg = recipe
    if kind == "hyperbolic":
        return hyperbolic_form(HYPERBOLIC_PRIMES[arg])[0]
    if kind == "pattern":   # (nt - (n+1))((n+1)t - n): certified primes
        return blanchfield_form(SeifertMatrix([[0, arg], [arg + 1, 0]]))[0]
    genus, seed = arg
    return blanchfield_form(random_seifert(random.Random(seed), genus))[0]


form_recipes = st.one_of(
    st.tuples(st.just("seifert"),
              st.tuples(st.sampled_from((1, 2)), st.integers(0, 2 ** 32 - 1))),
    st.tuples(st.just("pattern"), st.integers(1, 40)),
    st.tuples(st.just("hyperbolic"),
              st.integers(0, len(HYPERBOLIC_PRIMES) - 1)))


@given(form_recipes, st.integers(2, 100))
@settings(max_examples=80, deadline=None)
@example(("seifert", (1, 5)), 100)      # s^2 - 7/4*s + 1, refused
@example(("seifert", (2, 4)), 100)      # two quadratic primes, refused
@example(("pattern", 1), 100)           # 9_46
@example(("hyperbolic", 3), 100)        # t - 4, refused
@example(("hyperbolic", 6), 97)         # t + 4, refused
@example(("hyperbolic", 8), 100)        # t^2 + 2, refused
def test_substitution_keeps_every_validated_form_valid(recipe, c):
    """Hermitian symmetry and annihilation commute with t -> t^c, and
    nonsingularity survives as Q[t] is free over Q[t^c]: a validated form
    stays valid under the substitution, whether or not the certificate
    accepts its primes, so no complexity needs its forms rebuilt."""
    B = _recipe_form(recipe)
    B.validate()
    Bc = B.subs_power(c, "t")
    Bc.validate()
    assert Bc.module.dim_q() == c * B.module.dim_q()
    assert Bc.module.complexity == c
    assert _cyclic_nonsingular(Bc) == _cyclic_nonsingular(B)


def test_hyperbolic_primes_meet_both_answers_of_the_certificate():
    answers = [capelli_certified(p) for p in HYPERBOLIC_PRIMES]
    assert answers == [True] * 3 + [False] * 8


# -- orthogonal complements --------------------------------------------------------


def test_perp_spec_values(form_946):
    B, _ = form_946
    M = B.module
    a = M.generator_by_label("alpha")
    P0 = Submodule(M, [])
    assert annihilator_submodule(B, P0).dim_q() == M.dim_q()
    P = Submodule(M, [a])
    perp = annihilator_submodule(B, P)
    assert perp == P
    assert is_self_annihilating(B, P)
    assert not is_self_annihilating(B, P0)


def test_trefoil_no_self_annihilating_lattice():
    B, _ = blanchfield_form(trefoil_right())
    M = B.module
    # exhaust the small lattice: no nonzero element pairs to zero with itself
    for c0 in range(-2, 3):
        for c1 in range(-2, 3):
            if (c0, c1) == (0, 0):
                continue
            x = M.element([LaurentPoly({0: c0, 1: c1}, "s")])
            assert not B.pairing(x, x).is_zero()
            assert not is_self_annihilating(B, Submodule(M, [x]))


def test_diagonal_in_sum_with_mirror(form_946):
    B, _ = form_946
    L = direct_sum_forms([B, B.negate()], relabel=lambda i, l: f"{l}{i + 1}")
    M = L.module
    a1, a2 = M.generator_by_label("alpha1"), M.generator_by_label("alpha2")
    b1, b2 = M.generator_by_label("beta1"), M.generator_by_label("beta2")
    P = Submodule(M, [a1 - a2, b1 - b2])
    assert annihilator_submodule(L, P) == P
    assert is_self_annihilating(L, P)


def brute_force_perp(B, P, box=2):
    """Exhaustive small-lattice orthogonal complement (constant coordinates
    suffice for degree-one annihilators)."""
    M = B.module
    assert all(s.annihilator.span == 1 for s in M.summands)
    n = M.rank
    hits = []
    for coords in itertools.product(range(-box, box + 1), repeat=n):
        x = M.element([LaurentPoly.constant(c, M.variable) for c in coords])
        if all(B.pairing(x, b).is_zero() for b in P.generators):
            hits.append(x)
    return Submodule(M, hits)


def test_perp_against_brute_force(form_946):
    B, _ = form_946
    M = B.module
    cases = [
        [M.generator_by_label("alpha")],
        [M.generator_by_label("beta")],
        [M.generator_by_label("alpha"), M.generator_by_label("beta")],
    ]
    for gens in cases:
        P = Submodule(M, gens)
        assert annihilator_submodule(B, P) == brute_force_perp(B, P)


def test_perp_dimension_formula(rng):
    for _ in range(8):
        V = random_seifert(rng, genus=rng.choice([1, 2]))
        B, _ = blanchfield_form(V)
        M = B.module
        gens = [_random_element(rng, M)]
        P = Submodule(M, gens)
        perp = annihilator_submodule(B, P)
        assert P.dim_q() + perp.dim_q() == M.dim_q()
        # P inside its double complement
        double = annihilator_submodule(B, perp)
        assert double.contains_submodule(P)


# -- the all-coefficient oracle ------------------------------------------------


def allcoeff_perp(B, P):
    """P^perp with every coefficient of every pairing Bl(v^k g_i, b), b in a
    Q-basis of P, as its own linear equation: deg(order) conditions per b."""
    M = B.module
    dim = M.dim_q()
    if dim == 0:
        return Submodule(M, [])
    order = M.order().monic()
    odeg = order.span
    var = M.variable
    constraints = []
    for b in P.basis_elements():
        col_of = []
        for i, s in enumerate(M.summands):
            w = FracCoset.zero(var)
            for j, bj in enumerate(b.coords):
                if bj.is_zero():
                    continue
                w = w + B.gram[i][j].scale(bj.conj())
            wmod = _coset_mod_order(w, order)
            for k in range(s.annihilator.span):
                val = reduce_mod(wmod.shift(k), order)
                dense = [Fraction(0)] * odeg
                for e, q in val.items():
                    dense[e] = q
                col_of.append(dense)
        for pos in range(odeg):
            constraints.append([col[pos] for col in col_of])
    return Submodule(M, [M.from_q_coords(vec)
                         for vec in submodule.nullspace(constraints, dim)])


def _random_submodule(rng, M):
    """Up to two random generators, each supported on a random set of
    summands, so that P is often a proper nonzero submodule."""
    gens = []
    for _ in range(rng.randint(0, 2)):
        x = _random_element(rng, M)
        keep = rng.sample(range(M.rank), rng.randint(1, M.rank))
        gens.append(M.element(tuple(c if i in keep else LaurentPoly.zero(M.variable)
                                    for i, c in enumerate(x.coords))))
    return Submodule(M, gens)


def _with_mirror(B):
    # B + (-B) repeats every prime, so one element generates a proper submodule
    return direct_sum_forms([B, B.negate()], relabel=lambda i, l: f"{l}{i}")


def _assert_matches_oracle(rng, B, trials):
    proper = 0
    for _ in range(trials):
        P = _random_submodule(rng, B.module)
        perp = annihilator_submodule(B, P)
        assert perp == allcoeff_perp(B, P)
        proper += 0 < perp.dim_q() < B.module.dim_q()
    return proper


def test_perp_matches_allcoeff_oracle_random(rng):
    proper = 0
    for _ in range(8):
        B, _ = blanchfield_form(random_seifert(rng, genus=rng.choice([1, 2])))
        proper += _assert_matches_oracle(rng, B, 2)
        proper += _assert_matches_oracle(rng, _with_mirror(B), 2)
    assert proper >= 8


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_perp_matches_allcoeff_oracle_basechange(rng, c):
    mats = [pattern_9_46().seifert, random_seifert(rng, genus=1),
            random_seifert(rng, genus=2)]
    proper = 0
    for V in mats:
        B, _ = blanchfield_form(V)
        for form in (B, _with_mirror(B)):
            Bc, _ = basechange_form(form, c)
            whole = Submodule(Bc.module, [Bc.module.generator(i)
                                          for i in range(Bc.module.rank)])
            assert annihilator_submodule(Bc, whole).is_zero()
            assert allcoeff_perp(Bc, whole).is_zero()
            proper += _assert_matches_oracle(rng, Bc, 3)
    assert proper >= 3


def test_epsilon_values_against_reduction(rng):
    # eps(v^m) is the coefficient of v^(n-1) in v^m mod order, for m < 0 too
    for _ in range(20):
        n = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        coeffs[0] = coeffs[0] or Fraction(2)
        order = LaurentPoly.from_coeffs(coeffs + [1], "t")
        lo, hi = rng.randint(0, 4), n + rng.randint(0, 4)
        expect = [reduce_mod(LaurentPoly.monomial(m, 1, "t"), order)[n - 1]
                  for m in range(-lo, hi)]
        assert _epsilon_values(order, lo, hi) == expect


def test_perp_one_condition_per_basis_vector(form_946, monkeypatch):
    B, _ = basechange_form(form_946[0], 3)
    M = B.module
    shapes = []
    real = submodule.nullspace

    def spy(rows, ncols):
        shapes.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(submodule, "nullspace", spy)
    P = Submodule(M, [M.generator_by_label("alpha")])
    annihilator_submodule(B, P)
    assert shapes == [(P.dim_q(), M.dim_q())]


# -- singular forms ------------------------------------------------------------


def test_zero_form_is_singular(form_946):
    M = form_946[0].module
    zero = FracCoset.zero(M.variable)
    form = LinkingForm(M, tuple((zero,) * M.rank for _ in range(M.rank)))
    with pytest.raises(FormError, match="form is singular"):
        form.validate()


@pytest.mark.parametrize("c", [1, 3])
def test_doubled_form_is_singular(form_946, c):
    # [[G, G], [G, G]] is hermitian and annihilating, but (x, -x) pairs to
    # zero with everything
    B, _ = basechange_form(form_946[0], c)
    M = direct_sum([B.module, B.module], relabel=lambda i, l: f"{l}{i}")
    rows = tuple(row + row for row in B.gram)
    form = LinkingForm(M, rows + rows)
    with pytest.raises(FormError, match="form is singular"):
        form.validate()


# -- the one-coset nonsingularity test against the epsilon oracle ---------------


def _zero_generator(B, k):
    """B with generator k's row and column set to zero: still hermitian and
    annihilating, and singular, as generator k pairs to zero with all."""
    zero = FracCoset.zero(B.variable)
    rows = tuple(tuple(zero if k in (i, j) else z for j, z in enumerate(row))
                 for i, row in enumerate(B.gram))
    return LinkingForm(B.module, rows)


def test_cyclic_test_agrees_with_epsilon_oracle(rng):
    forms = [blanchfield_form(unknot())[0]]
    for _ in range(14):
        B, _ = blanchfield_form(random_seifert(rng, genus=rng.choice([1, 2])))
        if B.module.is_trivial():
            continue
        forms.append(B)
        c = rng.choice([2, 3])
        forms.append(basechange_form(B, c)[0])
        forms.append(direct_sum_forms([B, B], relabel=lambda i, l: f"{l}{i}"))
        forms.append(_zero_generator(B, rng.randrange(B.module.rank)))
    forms.append(direct_sum_forms(forms[1:3][:1] + [blanchfield_form(
        pattern_9_46())[0]], relabel=lambda i, l: f"{l}{i}"))
    seen = {"cyclic": 0, "not cyclic": 0, "singular": 0}
    for B in forms:
        oracle = annihilator_submodule(B, Submodule.whole(B.module)).is_zero()
        got = _cyclic_nonsingular(B)
        primes = [s.base.monic() for s in B.module.summands]
        if len(set(primes)) == len(primes):
            # a sum of prime-power pieces with distinct primes is cyclic,
            # generated by the sum of the generators: the test is exact
            assert got == oracle
            seen["cyclic"] += 1
        else:
            assert not got
            seen["not cyclic"] += 1
        if got:
            assert oracle
        seen["singular"] += not oracle
        if oracle:
            B.validate()
        else:
            with pytest.raises(FormError, match="form is singular"):
                B.validate()
    assert min(seen.values()) >= 10, seen
