"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated time bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from rhoslice.almodule import alexander_module, reverse_module
from rhoslice.blanchfield import blanchfield_form
from rhoslice.cli import main
from rhoslice.obstruction import (
    Companion,
    FamilyMember,
    FamilySpec,
    InfectedKnot,
    ObstructionError,
    verify_obstructed,
)
from rhoslice.factor import factor_laurent
from rhoslice.polyalg import LaurentPoly, equal_up_to_unit
from rhoslice.seifert import (
    PatternKnot,
    RhoExpr,
    SeifertMatrix,
    connected_sum,
    knot_transform,
    pattern_9_46,
    trefoil_left,
    trefoil_right,
)
from rhoslice.signatures import lt_signature_at, rho0, signature_function
from rhoslice.submodule import Submodule, annihilator_submodule

from conftest import (
    circle_point,
    eval_gaussian,
    lt_hermitian,
    random_laurent,
    random_seifert,
    smith_with_u,
    snf_is_valid,
    symbol,
)
from test_signatures import signature_via_charpoly
from test_blanchfield import _random_element
from sweep_oracle import basechange_form

S = LaurentPoly.var("s")
R946 = SeifertMatrix([[0, 1], [2, 0]])


class timed:
    def __init__(self, criterion: str, bound_seconds: float):
        self.criterion = criterion
        self.bound = bound_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} "
              f"({elapsed:.2f}s, bound {self.bound}s)")
        if exc_type is None:
            assert elapsed < self.bound, \
                f"criterion {self.criterion} exceeded {self.bound}s"
        return False


def test_criterion_1_module_of_9_46():
    with timed("1 (9_46 module)", 1.0):
        M = alexander_module(R946)
        anns = sorted(M.annihilator_multiset(), key=str)
        expected = sorted([(S - 2).monic(), (2 * S - 1).monic()], key=str)
        assert len(anns) == 2
        assert all(equal_up_to_unit(a, e) for a, e in zip(anns, expected))


def test_criterion_2_blanchfield_facts():
    rng = random.Random(4001)
    with timed("2 (Blanchfield facts)", 5.0):
        B, _ = blanchfield_form(pattern_9_46())
        a = B.module.generator_by_label("alpha")
        b = B.module.generator_by_label("beta")
        assert B.pairing(a, a).is_zero()
        assert B.pairing(b, b).is_zero()
        assert not B.pairing(a, b).is_zero()
        mats = [R946, trefoil_right(), trefoil_left()]
        mats += [random_seifert(rng, genus=1) for _ in range(10)]
        mats += [random_seifert(rng, genus=2) for _ in range(10)]
        for V in mats:
            form, _ = blanchfield_form(V)
            form.validate()  # hermitian + annihilation + nonsingular


def test_criterion_3_reversal_law():
    with timed("3 (reversal law)", 1.0):
        M = alexander_module(pattern_9_46())
        rev = reverse_module(M)
        alpha = next(s for s in rev.summands if s.label == "alpha")
        beta = next(s for s in rev.summands if s.label == "beta")
        assert equal_up_to_unit(alpha.annihilator, S - 2)
        assert equal_up_to_unit(beta.annihilator, 2 * S - 1)
        # the reversed module display: Q[s]/(s-2) + Q[s]/(2s-1) as a multiset
        assert sorted(map(str, rev.annihilator_multiset())) == \
            sorted(map(str, M.annihilator_multiset()))


def test_criterion_4_basechange_law():
    rng = random.Random(4003)
    with timed("4 (base-change law, 100 instances)", 30.0):
        # the law on the substituted form, cross-checked on the splitting
        # base change, which agrees with it where no summand splits
        B, dec = blanchfield_form(pattern_9_46())
        forms = {c: B.subs_power(c, "t") for c in (1, 2, 3, 4)}
        transports = {c: basechange_form(B, c) for c in (1, 2, 3, 4)}
        for c, Bc in forms.items():
            Bc.validate()
            assert Bc == transports[c][0]
        checked = 0
        while checked < 100:
            c = rng.choice([1, 2, 3, 4])
            Bc = forms[c]
            Bo, bc = transports[c]
            x = _random_element(rng, B.module)
            y = _random_element(rng, B.module)
            f = random_laurent(rng, "t", max_deg=2, min_exp=-1)
            g = random_laurent(rng, "t", max_deg=2, min_exp=-1)

            def lifted(z):
                return Bc.module.element(
                    tuple(a.subs_power(c, "t") for a in z.coords))

            lhs = Bc.pairing(lifted(x).scale(f), lifted(y).scale(g))
            rhs = B.pairing(x, y).subs_power(c, "t").scale(f).scale(g.conj())
            assert lhs == rhs
            assert Bo.pairing(bc.transport(x).scale(f),
                              bc.transport(y).scale(g)) == rhs
            checked += 1


def test_criterion_5_signatures():
    with timed("5 (signatures)", 2.0):
        tr = trefoil_right()
        assert lt_signature_at(tr, None) == -2
        sf = signature_function(tr)
        assert [(r.angle, r.jump) for r in sf.roots] == [(Fraction(1, 6), -2)]
        assert sf.to_json()["jumps"] == [{"jump": -2, "theta": "1/6"}]
        assert rho0(tr) == RhoExpr(Fraction(-4, 3), Fraction(-4, 3))
        # additivity, mirror, reverse: exact identities
        assert rho0(connected_sum([tr, tr])) == RhoExpr(Fraction(-8, 3),
                                                        Fraction(-8, 3))
        assert rho0(knot_transform(tr, "mirror")) == RhoExpr(Fraction(4, 3),
                                                             Fraction(4, 3))
        assert rho0(knot_transform(tr, "reverse")) == RhoExpr(Fraction(-4, 3),
                                                              Fraction(-4, 3))
        assert rho0(connected_sum([tr, trefoil_left()])) == RhoExpr(0, 0)


def test_criterion_6_single_example(tmp_path, capsys):
    doc = {
        "schema": "rhoslice.knot/1",
        "pattern": {
            "name": "9_46",
            "seifert": [[0, 1], [2, 0]],
            "curves": [{"name": "alpha", "class": ["1", "0"]},
                       {"name": "beta", "class": ["0", "1"]}],
        },
        "companions": {"alpha": {"symbol": "rA"}, "beta": {"symbol": "rB"}},
    }
    path = tmp_path / "K.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with timed("6 (single-example theorem, c <= 5)", 10.0):
        code = main(["obstruct", str(path), "--cmax", "5",
                     "--output", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "OBSTRUCTED"
        assert report["uniform_in_c"] is True
        by_class = {}
        for cell in report["cells"]:
            coeffs = {k: Fraction(v)
                      for k, v in cell["rho"]["coefficients"].items()}
            by_class.setdefault((cell["c"], cell["class"]), set()).add(
                tuple(sorted(coeffs.items())))
        expected = {
            (("rB", Fraction(1)),), (("rA", Fraction(-1)),),
            (("rA", Fraction(-1)), ("rB", Fraction(1))),
        }
        neg_expected = {
            tuple(sorted((k, -v) for k, v in row)) for row in expected}
        for (c, key), rows in by_class.items():
            assert rows == expected or rows == neg_expected, \
                f"unexpected expressions at c={c} class={key}"


def test_criterion_7_family(capsys):
    with timed("7 (family proposition, c <= 4)", 60.0):
        members = []
        for i, n in enumerate((1, -2, 3), start=1):
            K = InfectedKnot.build(pattern_9_46(), {
                "alpha": Companion(f"rA{i}", symbol(f"rA{i}")),
                "beta": Companion(f"rB{i}", symbol(f"rB{i}"))})
            members.append(FamilyMember(K, n))
        spec = FamilySpec(tuple(members), ("K1", "K2", "K3"))
        report = verify_obstructed(spec, 4, cells=True)
        assert report.verdict == "OBSTRUCTED"
        assert all(any(v != 0 for _, v in cell.rho.coeffs)
                   for cell in report.cells)
        assert len(report.cells) == 2 * (2 * 2 * 3 * 3 * 4 * 4 - 1)


def test_criterion_8_soundness_negatives():
    with timed("8 (soundness negatives)", 20.0):
        r = Companion("r", symbol("r"))
        equal = InfectedKnot.build(pattern_9_46(), {"alpha": r, "beta": r})
        rep = verify_obstructed(FamilySpec.single(equal), 2)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.witnesses and len(rep.witnesses[0].support) == 2

        bare = InfectedKnot.build(pattern_9_46(), {})
        rep2 = verify_obstructed(FamilySpec.single(bare), 2)
        assert rep2.verdict == "INCONCLUSIVE"

        bad = PatternKnot.from_int_vectors(R946, {"gamma": (1, 1)},
                                           name="bad-curve")
        K = InfectedKnot.build(bad, {
            "gamma": Companion("rG", symbol("rG"))})
        with pytest.raises(ObstructionError):
            verify_obstructed(FamilySpec.single(K), 1)


def test_criterion_9_oracle_equivalence():
    rng = random.Random(4009)
    with timed("9 (oracle equivalence, >= 50 instances each)", 120.0):
        # Smith normal form vs re-multiplication and cofactor determinants
        for _ in range(50):
            n, m = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
            A = [[random_laurent(rng, "t", max_deg=2, min_exp=-1)
                  for _ in range(m)] for _ in range(n)]
            snf_is_valid(A, *smith_with_u(A))

        # factorization vs re-multiplication and root counting
        atoms = [2 * S - 1, S - 2, S * S - S + 1, S + 1, S * S + 2, 3 * S + 1]
        for _ in range(50):
            product = LaurentPoly.one("s")
            for f in rng.choices(atoms, k=rng.randint(1, 4)):
                product = product * f
            factors = factor_laurent(product)
            back = LaurentPoly.one("s")
            for f, mult in factors:
                back = back * f ** mult
            assert equal_up_to_unit(back, product)
            for f, _mult in factors:
                if f.span == 2:
                    # no rational roots: discriminant is not a square
                    disc = f[1] * f[1] - 4 * f[0] * f[2]
                    if disc >= 0:
                        num, den = disc.numerator, disc.denominator
                        rt = math.isqrt(num * den)
                        assert rt * rt != num * den
                elif f.span > 2:
                    # no rational roots among the divisor candidates
                    scale = math.lcm(*(c.denominator for c in f.poly_coeffs()))
                    ints = [int(x) for x in (f * scale).poly_coeffs()]
                    for p in range(1, abs(ints[0]) + 1):
                        if ints[0] % p:
                            continue
                        for q in range(1, abs(ints[-1]) + 1):
                            if ints[-1] % q or math.gcd(p, q) != 1:
                                continue
                            for cand in (Fraction(p, q), Fraction(-p, q)):
                                assert f.evaluate(cand) != 0

        # exact inertia vs characteristic-polynomial root counting
        from rhoslice.seifert import alexander_polynomial

        checked = 0
        while checked < 50:
            V = random_seifert(rng, genus=rng.choice([1, 2]))
            u = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            if u == 0:
                u = None
            if eval_gaussian(alexander_polynomial(V),
                             circle_point(u)).is_zero():
                continue
            assert lt_signature_at(V, u) == \
                signature_via_charpoly(lt_hermitian(V, u))
            checked += 1

        # orthogonal complements: direct pairing re-check and dim formula
        for _ in range(50):
            V = random_seifert(rng, genus=rng.choice([1, 2]))
            B, _ = blanchfield_form(V)
            M = B.module
            P = Submodule(M, [_random_element(rng, M)])
            perp = annihilator_submodule(B, P)
            for x in perp.basis_elements():
                for gen in P.generators:
                    assert B.pairing(x, gen).is_zero()
            assert P.dim_q() + perp.dim_q() == M.dim_q()
            assert annihilator_submodule(B, perp).contains_submodule(P)
