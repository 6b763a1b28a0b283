"""The transposition certificates that decide an isotypic class without
enumerating its cells, checked against the enumeration, an independent
checker of the printed certificates and, when scipy is installed, a
floating-point linear programming solver."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import sweep_oracle
from rhoslice import obstruction
from rhoslice.almodule import reduce_to_isotypic
from rhoslice.cli import main
from rhoslice.obstruction import (
    Certificate,
    ObstructionError,
    RhoExpr,
    _certificate,
    _simplex,
    verify_obstructed,
)
from conftest import rho_of
from test_obstruction import (
    NUMERIC_KINDS,
    SYMBOLIC_KINDS,
    assert_same_answers,
    family_spec,
    random_family,
    random_pattern_family,
    single_spec,
)


def independent_check(entry) -> bool:
    """Whether a report's `slot_types` entry carries a certificate whose
    margins, computed from the JSON alone, are positive on every distinct
    expression."""
    cert = entry["certificate"]
    y = {name: Fraction(v) for name, v in cert["y"].items()}
    alpha, beta = Fraction(cert["alpha"]), Fraction(cert["beta"])
    if alpha < 0 or beta < 0:
        return False
    for expression in entry["types"]:
        rho = expression["rho"]
        if "constant" in rho:
            lo = hi = Fraction(rho["constant"])
        else:
            lo, hi = (Fraction(x) for x in rho["constant_interval"])
        dot = sum(y.get(name, 0) * Fraction(v)
                  for name, v in rho["coefficients"].items())
        if not dot + alpha * lo - beta * hi > 0:
            return False
    return True


def random_families(count, seed=8100):
    """(spec, mode): 9_46 families with symbolic, exact, interval and
    trivial companions, shared companions and both signs, and families of
    random genus-one patterns."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 5 == 4:
            yield random_pattern_family(rng, 2, 2), "symbolic"
            continue
        mode = ("symbolic", "numeric")[i % 2]
        kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS
        yield random_family(rng, 4, kinds, most=3, shared=0.2), mode


def negated(expr):
    return RhoExpr(-expr.const_hi, -expr.const_lo,
                   tuple((name, -v) for name, v in expr.coeffs))


# -- the simplex ------------------------------------------------------------------


def fractions(*values):
    return [Fraction(v) for v in values]


def test_simplex_finds_the_minimum():
    # min x1 + 2 x2 with x1 + x2 >= 2 and x1 <= 1: x = (1, 1), cost 3
    x = _simplex([fractions(1, 1, -1, 0), fractions(1, 0, 0, 1)],
                 fractions(2, 1), fractions(1, 2, 0, 0))
    assert x == [1, 1, 0, 0]


def test_simplex_detects_infeasibility_and_drops_redundant_rows():
    rows = [fractions(1, 1), fractions(1, 1)]
    assert _simplex(rows, [Fraction(1), Fraction(2)], [Fraction(1)] * 2) is None
    # a repeated row leaves an artificial basic at zero that no column can
    # replace; its row is dropped
    x = _simplex(rows, [Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)])
    assert x == [1, 0]


def random_lp(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[Fraction(rng.choice((0, 0, 1, -1, 2, -3))) for _ in range(n)]
            for _ in range(m)]
    rhs = [Fraction(rng.choice((0, 0, 1, 2))) for _ in range(m)]
    cost = [Fraction(rng.choice((0, 1, 2, 5))) for _ in range(n)]
    return rows, rhs, cost


def test_simplex_solutions_are_exact_vertices():
    # degenerate data (many zero right-hand sides and entries) is where
    # Bland's rule keeps the pivots from cycling
    rng = random.Random(8000)
    solved = 0
    for _ in range(400):
        rows, rhs, cost = random_lp(rng)
        x = _simplex(rows, rhs, cost)
        if x is None:
            continue
        solved += 1
        assert all(v >= 0 for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
        assert sum(1 for v in x if v) <= len(rows)
    assert solved >= 100


def test_simplex_agrees_with_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(8001)
    for _ in range(300):
        rows, rhs, cost = random_lp(rng)
        x = _simplex(rows, rhs, cost)
        res = optimize.linprog([float(c) for c in cost],
                               A_eq=[[float(a) for a in row] for row in rows],
                               b_eq=[float(b) for b in rhs], method="highs")
        assert (x is not None) == (res.status == 0), (rows, rhs, cost)
        if x is not None:
            assert float(sum(c * v for c, v in zip(cost, x))) == \
                pytest.approx(res.fun, abs=1e-7)


# -- certificates of given slot types -------------------------------------------------


def test_certificate_of_hand_built_types():
    # a symbol and a negative constant: y = 1 on the symbol, beta = 3/4
    cert = _certificate((rho_of(r=1), rho_of(Fraction(-4, 3))))
    assert cert == Certificate((("r", Fraction(1)),), Fraction(0),
                               Fraction(3, 4))
    assert str(cert) == "y = {r: 1}, alpha = 0, beta = 3/4"
    # 3 * 1/3 + 2 * (-1/2) = 0 puts a point in the cone, although no count
    # vector of one copy per type vanishes
    assert _certificate((rho_of(Fraction(1, 3)),
                         rho_of(Fraction(-1, 2)))) is None
    # an interval through zero and an exact zero are points of the cone
    assert _certificate((RhoExpr(Fraction(-1), Fraction(1)),)) is None
    assert _certificate((rho_of(r=1), RhoExpr.zero())) is None
    # intervals of one sign are certified by alpha
    cert = _certificate((RhoExpr(Fraction(1, 5), Fraction(1, 4)),
                         rho_of(Fraction(1, 3), q=-2)))
    assert cert is not None and cert.alpha > 0
    assert cert.proves((RhoExpr(Fraction(1, 5), Fraction(1, 4)),
                        rho_of(Fraction(1, 3), q=-2)))


def class_tables(count):
    """The slot-type tables of every class of the random families."""
    tables = []
    for spec, mode in random_families(count, seed=8200):
        tables += verify_obstructed(spec, 1, mode, cells=True).slot_types
    return tables


def test_a_point_in_the_cone_is_never_certified():
    mutated = 0
    for table in class_tables(100):
        exprs = list(table.rho)
        cert = table.certificate or _certificate(table.rho)
        if cert is None:
            continue
        # type j made the negation of type a: k_a = k_j = 1 sums to zero
        # in the symbols and to an interval around zero in the constant;
        # with one type, that type made zero
        for j, a in itertools.permutations(range(len(exprs)), 2):
            bad = exprs[:j] + [negated(exprs[a])] + exprs[j + 1:]
            assert not cert.proves(bad)
            assert _certificate(tuple(bad)) is None
            mutated += 1
        if len(exprs) == 1:
            assert _certificate((RhoExpr.zero(),)) is None
    assert mutated >= 50


def test_certificate_feasibility_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    tables = class_tables(60)
    outcomes = set()
    for table in tables:
        exprs = table.rho
        names = sorted({name for e in exprs for name, _ in e.coeffs})
        # y.s_t + alpha*lo_t - beta*hi_t >= 1, as A_ub x <= -1
        a_ub = [[-float(dict(e.coeffs).get(name, 0)) for name in names]
                + [-float(e.const_lo), float(e.const_hi)] for e in exprs]
        res = optimize.linprog(
            [0.0] * (len(names) + 2), A_ub=a_ub, b_ub=[-1.0] * len(exprs),
            bounds=[(None, None)] * len(names) + [(0, None)] * 2,
            method="highs")
        cert = _certificate(exprs)
        assert res.status in (0, 2)
        assert (cert is not None) == (res.status == 0), [str(e) for e in exprs]
        outcomes.add(res.status)
    assert outcomes == {0, 2}


# -- certificates in the sweep -------------------------------------------------------


def test_certificates_agree_with_the_enumeration(monkeypatch):
    # every class tries its certificate, however few its cells
    monkeypatch.setattr(obstruction, "LISTED_CELLS_PER_CLASS", 0)
    seen = {"certified": 0, "enumerated": 0, "OBSTRUCTED": 0,
            "INCONCLUSIVE": 0, "interval": 0, "numeric": 0}
    for spec, mode in random_families(200):
        report = verify_obstructed(spec, 1, mode)
        full = verify_obstructed(spec, 1, mode, cells=True)
        oracle = sweep_oracle.verify_obstructed(spec, 1, mode)
        assert report.verdict == full.verdict == oracle.verdict
        assert report.witnesses == full.witnesses
        assert_same_answers(full, oracle)
        assert report.cells == ()
        assert [t.certificate for t in report.slot_types] == \
            [t.certificate for t in full.slot_types]
        entries = report.to_json()["slot_types"]
        for table, entry in zip(report.slot_types, entries):
            if table.certificate:
                seen["certified"] += 1
                assert independent_check(entry)
                assert all(cell.nonvanishing for cell in oracle.cells
                           if cell.class_key == table.class_key)
            else:
                seen["enumerated"] += 1
                assert entry["certificate"] is None
        seen[report.verdict] += 1
        seen["numeric"] += mode == "numeric"
        seen["interval"] += any(e.const_lo != e.const_hi
                                for t in report.slot_types for e in t.rho)
    assert min(seen.values()) >= 20, seen


def test_default_and_cells_reports_differ_only_in_the_listed_cells():
    sizes = set()
    for spec, mode in random_families(40, seed=8300):
        report = verify_obstructed(spec, 2, mode)
        full = verify_obstructed(spec, 2, mode, cells=True)
        assert (report.verdict, report.witnesses, report.slot_types) == \
            (full.verdict, full.witnesses, full.slot_types)
        listed = {cell.class_key for cell in report.cells}
        assert report.cells == tuple(cell for cell in full.cells
                                     if cell.class_key in listed)
        for table in report.slot_types:
            small = (math.prod(n + 1 for n in table.copies) - 1
                     <= obstruction.LISTED_CELLS_PER_CLASS)
            assert (table.class_key in listed) == small
            assert not (small and table.certificate)
            sizes.add(small)
        assert report.audit == full.audit
        assert [n for n in report.notes if not n.startswith("cells:")] == \
            list(full.notes)
    assert sizes == {True, False}


def test_a_failed_recheck_raises(monkeypatch):
    # a solver that returns the zero vertex: y = 0, alpha = beta = 0 has
    # margin 0 on every type
    monkeypatch.setattr(obstruction, "_simplex",
                        lambda rows, rhs, cost: [Fraction(0)] * len(cost))
    with pytest.raises(ObstructionError, match="fails its exact re-check"):
        verify_obstructed(family_spec((1, -2)), 1)


def test_a_mutated_type_expression_is_not_certified(monkeypatch):
    # K2's -tK slot made to add the negation of K1's K slot: the pair
    # cancels in each class, so neither class may be certified
    real = obstruction._slot_expr

    def mutated(assembly, prime, slot, x, mode):
        if (slot.member, slot.reversed_part) == (1, True):
            twin = slot._replace(member=0, reversed_part=False,
                                 curve="beta" if slot.curve == "alpha"
                                 else "alpha")
            block = assembly.blocks[(0, False)]
            expr, audit = real(assembly, prime, twin, reduce_to_isotypic(
                block.curve_class[twin.curve], prime), mode)
            return negated(expr), audit
        return real(assembly, prime, slot, x, mode)

    spec = family_spec((1, 2))
    assert all(t.certificate for t in verify_obstructed(spec, 1).slot_types)
    monkeypatch.setattr(obstruction, "_slot_expr", mutated)
    report = verify_obstructed(spec, 1)
    assert report.verdict == "INCONCLUSIVE"
    assert [t.certificate for t in report.slot_types] == [None, None]
    assert {len(w.support) for w in report.witnesses} >= {2}


def shared_family_doc():
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    return {
        "schema": "rhoslice.knot/1",
        "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                    "curves": curves},
        "knots": {"K1": {"companions": {"alpha": {"symbol": "r"},
                                        "beta": {"symbol": "r"}}},
                  "K2": {"companions": {"alpha": {"symbol": "q"},
                                        "beta": {"symbol": "p"}}}},
        "family": [{"knot": "K1", "multiplicity": 1},
                   {"knot": "K2", "multiplicity": -2}],
    }


def test_cells_refute_a_wrong_certificate(monkeypatch, tmp_path, capsys):
    # A mutant whose re-check accepts anything, with a solver that answers
    # for every class: only the enumeration under `cells` stands between it
    # and a false OBSTRUCTED.
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(shared_family_doc()), encoding="utf-8")
    assert main(["obstruct", str(path), "--cmax", "1"]) == 2
    capsys.readouterr()
    monkeypatch.setattr(Certificate, "proves", lambda self, exprs: True)
    monkeypatch.setattr(obstruction, "_simplex",
                        lambda rows, rhs, cost: [Fraction(0)] * len(cost))
    for output in ("text", "structured"):
        code = main(["obstruct", str(path), "--cmax", "1", "--cells",
                     "--output", output])
        out, err = capsys.readouterr()
        assert code == 1 and "OBSTRUCTED" not in out
        assert "refuted by the vanishing cell" in err
    assert main(["obstruct", str(path), "--cmax", "1"]) == 0
    capsys.readouterr()


def test_eight_single_copy_members_evaluate_no_cells(monkeypatch, tmp_path,
                                                     capsys):
    # 16 single-copy slot types per class, 65,535 count vectors each: the
    # report once listed all 131,070 cells
    def unreachable(*args):
        raise AssertionError("a class was enumerated")

    spec = family_spec((1, -1) * 4)
    monkeypatch.setattr(obstruction, "_sweep_class", unreachable)
    start = time.perf_counter()
    report = verify_obstructed(spec, 5)
    assert time.perf_counter() - start < 5.0
    assert (report.verdict, report.cells, report.witnesses) == \
        ("OBSTRUCTED", (), ())
    assert [len(t.types) for t in report.slot_types] == [16, 16]
    for table, entry in zip(report.slot_types,
                            report.to_json()["slot_types"]):
        assert table.certificate.alpha == table.certificate.beta == 0
        assert independent_check(entry)
    assert sum("count vectors vanishes" in line for line in report.audit) == 2
    with pytest.raises(AssertionError, match="enumerated"):
        verify_obstructed(spec, 1, cells=True)
    # through the command line, without --cells
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    doc = {"schema": "rhoslice.knot/1",
           "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                       "curves": curves},
           "knots": {f"K{i}": {"companions": {
               "alpha": {"symbol": f"rA{i}"}, "beta": {"symbol": f"rB{i}"}}}
               for i in range(1, 9)},
           "family": [{"knot": f"K{i}", "multiplicity": (-1) ** (i + 1)}
                      for i in range(1, 9)]}
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["obstruct", str(path), "--output", "structured"]) == 0
    out = capsys.readouterr().out
    assert len(out) < 100_000
    assert all(entry["certificate"] for entry in json.loads(out)["slot_types"])


def test_ten_single_copy_members_are_certified(tmp_path, capsys):
    # 20 single-copy slot types per class: 2^20 - 1 count vectors, whose
    # supports would list 10,485,760 slot labels; the certificates decide
    # them, and only --cells meets the support bound
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    doc = {"schema": "rhoslice.knot/1",
           "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                       "curves": curves},
           "knots": {f"K{i}": {"companions": {
               "alpha": {"symbol": f"rA{i}"}, "beta": {"symbol": f"rB{i}"}}}
               for i in range(1, 11)},
           "family": [{"knot": f"K{i}", "multiplicity": 1}
                      for i in range(1, 11)]}
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["obstruct", str(path), "--cmax", "1", "--output", "structured"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "OBSTRUCTED" and report["cells"] == []
    assert [len(entry["types"]) for entry in report["slot_types"]] == [20, 20]
    assert all(independent_check(entry) for entry in report["slot_types"])
    assert main(argv + ["--cells"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: c=1: the supports of the (t - 2) class list 10485760 slot "
        "labels, more than MAX_SUPPORT_ENTRIES_PER_CLASS = 1048576\n")


def test_text_output_names_each_class_decision(tmp_path, capsys):
    path = tmp_path / "family.json"
    doc = shared_family_doc()
    doc["knots"]["K1"]["companions"]["beta"] = {"symbol": "s"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["obstruct", str(path), "--cmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "count-vector cells" not in out
    decisions = [line for line in out.splitlines()
                 if line.startswith("  c=1 class=(") and "certificate y" in line]
    assert len(decisions) == 2
    assert main(["obstruct", str(path), "--cmax", "1", "--cells"]) == 0
    out = capsys.readouterr().out
    assert "70 count-vector cells at c=1:" in out
    assert sum(" counts=(" in line for line in out.splitlines()) == 70
    # a single knot's classes have three cells each: enumerated and listed
    assert verify_obstructed(single_spec(), 1).slot_types[0].certificate is None
