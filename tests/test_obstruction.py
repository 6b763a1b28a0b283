import itertools
import math
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sweep_oracle
from rhoslice import obstruction
from rhoslice.almodule import (
    AlexanderModule,
    Summand,
    alexander_module,
    isotypic_decompose,
    reduce_to_isotypic,
)
from rhoslice.blanchfield import FormError, LinkingForm, blanchfield_form
from rhoslice.obstruction import (
    MAX_CELLS_PER_CLASS,
    MAX_SLOT_TYPES_PER_CLASS,
    MAX_SUPPORT_ENTRIES_PER_CLASS,
    Companion,
    FamilyMember,
    FamilySpec,
    InfectedKnot,
    ObstructionError,
    ObstructionReport,
    ReportCell,
    RhoExpr,
    Slot,
    _accumulate,
    _slot_contributions,
    _slot_expr,
    _unit_coordinate,
    verify_obstructed,
)
from rhoslice.polyalg import FracCoset, LaurentPoly, capelli_certified, factor_laurent
from rhoslice.seifert import PatternKnot, SeifertMatrix, metabolizer_search, pattern_9_46, trefoil_right
from rhoslice.signatures import Rho0Value

from conftest import hyperbolic_form

T = LaurentPoly.var("t")


def single_spec(alpha="rA", beta="rB"):
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion.symbol(alpha), "beta": Companion.symbol(beta)})
    return FamilySpec.single(K)


def family_spec(multiplicities=(1, -2, 3)):
    members = []
    for i, n in enumerate(multiplicities, start=1):
        K = InfectedKnot.build(pattern_9_46(), {
            "alpha": Companion.symbol(f"rA{i}"),
            "beta": Companion.symbol(f"rB{i}")})
        members.append(FamilyMember(K, n))
    return FamilySpec(tuple(members),
                      tuple(f"K{i}" for i in range(1, len(members) + 1)))


# -- RhoExpr ---------------------------------------------------------------------


def test_rhoexpr_canonical():
    e = RhoExpr.zero().add_symbol("rB", Fraction(1)).add_symbol("rA", Fraction(-1))
    assert e.coefficient("rA") == -1 and e.coefficient("rB") == 1
    assert e.is_verifiably_nonzero()
    cancel = e.add_symbol("rA", Fraction(1)).add_symbol("rB", Fraction(-1))
    assert cancel.is_exactly_zero()
    assert not cancel.is_verifiably_nonzero()


def test_rhoexpr_intervals():
    e = RhoExpr.zero().add_value(Rho0Value.of_interval(
        Fraction(-1, 10), Fraction(1, 10)), 1)
    assert not e.is_verifiably_nonzero()
    e2 = RhoExpr.zero().add_value(Rho0Value.of_interval(
        Fraction(1, 10), Fraction(2, 10)), 1)
    assert e2.is_verifiably_nonzero()
    e3 = e2.add_value(Rho0Value.of_interval(Fraction(1, 10), Fraction(2, 10)), -1)
    assert not e3.is_verifiably_nonzero()


def random_rho(rng):
    kind = rng.choice(("symbol", "exact", "interval"))
    if kind == "symbol":
        return Rho0Value.of_symbol(rng.choice(("ra", "rb", "rc")))
    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "exact":
        return Rho0Value.of_exact(v)
    return Rho0Value.of_interval(v, v + Fraction(rng.randint(0, 3), 4))


def chained(values):
    expr = RhoExpr.zero()
    for rho, sign in values:
        expr = expr.add_value(rho, sign)
    return expr


def random_values(rng, most=6):
    return [(random_rho(rng), rng.choice((1, -1)))
            for _ in range(rng.randint(0, most))]


def test_rhoexpr_add_agrees_with_add_value():
    rng = random.Random(7001)
    for _ in range(300):
        values = random_values(rng)
        cut = rng.randint(0, len(values))
        assert chained(values[:cut]) + chained(values[cut:]) == chained(values)


def test_rhoexpr_add_commutative_and_associative():
    rng = random.Random(7002)
    for _ in range(300):
        a, b, c = (chained(random_values(rng)) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + RhoExpr.zero() == a == RhoExpr.zero() + a


def test_rhoexpr_add_cancels_and_adds_interval_ends():
    a = RhoExpr.of(1, rA=2, rB=-1)
    total = a + RhoExpr.of(-1, rA=-2, rC=Fraction(1, 3))
    assert total.coeffs == (("rB", Fraction(-1)), ("rC", Fraction(1, 3)))
    assert total.const_lo == total.const_hi == 0
    assert (a + RhoExpr.of(-1, rA=-2, rB=1)).is_exactly_zero()
    i = RhoExpr.zero().add_value(
        Rho0Value.of_interval(Fraction(-1, 10), Fraction(3, 10)), 1)
    j = RhoExpr.zero().add_value(
        Rho0Value.of_interval(Fraction(1, 5), Fraction(1, 2)), -1)
    assert ((i + j).const_lo, (i + j).const_hi) == \
        (Fraction(-3, 5), Fraction(1, 10))


def general_sum(a, b):
    d = dict(a.coeffs)
    for name, v in b.coeffs:
        d[name] = d.get(name, Fraction(0)) + v
    return RhoExpr(a.const_lo + b.const_lo, a.const_hi + b.const_hi,
                   tuple(sorted((k, v) for k, v in d.items() if v != 0)))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
maybe_zero = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def rho_exprs(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(("ra", "rb", "rc")),
                                  small_fractions))
    lo = draw(maybe_zero)
    hi = lo + abs(draw(maybe_zero))
    return RhoExpr(lo, hi, tuple(sorted((k, v) for k, v in coeffs.items()
                                        if v != 0)))


@given(rho_exprs(), rho_exprs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rhoexpr_add_matches_the_general_sum(a, b, cancel):
    # the sum skips the symbol merge when one side has no symbols and the
    # constant adds when one side's ends are both 0
    if cancel:
        b = RhoExpr(b.const_lo, b.const_hi, tuple((k, -v) for k, v in a.coeffs))
    for x, y in ((a, b), (b, a)):
        total = x + y
        assert total == general_sum(x, y)
        assert type(total.const_lo) is type(total.const_hi) is Fraction


# -- assembly --------------------------------------------------------------------


def test_assemble_spec_values():
    spec = single_spec()
    M, B = sweep_oracle.assemble(spec, 1)
    anns = sorted(str(s.annihilator) for s in M.summands)
    assert anns == ["t - 1/2", "t - 1/2", "t - 2", "t - 2"]
    assert M.dim_q() == 4

    M2, _ = sweep_oracle.assemble(spec, 2)
    anns2 = sorted(str(s.annihilator) for s in M2.summands)
    assert anns2 == ["t^2 - 1/2", "t^2 - 1/2", "t^2 - 2", "t^2 - 2"]

    # degenerate: the bare uninfected pattern assembles to its own module
    K = InfectedKnot.build(pattern_9_46(), {})
    bare = FamilySpec((FamilyMember(K, 1, with_reverse=False),), ("R",))
    Mb, Bb = sweep_oracle.assemble(bare, 1)
    assert sorted(str(s.annihilator) for s in Mb.summands) == \
        ["t - 1/2", "t - 2"]


def test_assembled_copies_are_orthogonal():
    spec = family_spec((1, -2, 3))
    M, B = sweep_oracle.assemble(spec, 2)
    # generators from different copies pair to zero (block structure)
    prefixes = [lbl.rsplit(".", 1)[0] for lbl in
                (s.label for s in M.summands)]
    for i in range(M.rank):
        for j in range(M.rank):
            if prefixes[i] != prefixes[j]:
                assert B.gram[i][j].is_zero()


# -- the subset enumeration, the oracle of the count-vector sweep ---------------


@dataclass(frozen=True)
class AdmissiblePattern:
    """A nonempty support inside one isotypic class: the positions where a
    hypothetical self-annihilating element survives isotypic reduction."""

    prime: LaurentPoly
    class_key: str
    support: tuple[Slot, ...]


def admissible_patterns(spec, c):
    """All (isotypic prime, nonempty support) pairs at complexity c, each
    class's supports in itertools.combinations order."""
    assembly = sweep_oracle.assemble_at(spec, c)
    patterns = []
    for prime, key in sweep_oracle.isotypic_primes(assembly):
        slots = sweep_oracle.slots_for_prime(assembly, prime)
        for size in range(1, len(slots) + 1):
            for chosen in itertools.combinations(slots, size):
                patterns.append(AdmissiblePattern(prime, key, chosen))
    return patterns


def evaluate_rho(spec, pattern, c, mode="symbolic"):
    """A support's expression: the sum of its slots' expressions."""
    assembly = sweep_oracle.assemble_at(spec, c)
    return sum((_slot_expr(assembly, pattern.prime, slot, mode)[0]
                for slot in pattern.support), RhoExpr.zero())


# -- admissible patterns -----------------------------------------------------------


def test_pattern_counts_single_member():
    spec = single_spec()
    pats = admissible_patterns(spec, 1)
    assert len(pats) == 6
    by_class = {}
    for p in pats:
        by_class.setdefault(p.class_key, []).append(p)
    assert sorted(len(v) for v in by_class.values()) == [3, 3]
    sizes = sorted(len(p.support) for p in pats)
    assert sizes == [1, 1, 1, 1, 2, 2]


def test_pattern_counts_two_members():
    spec = family_spec((1, 1))
    pats = admissible_patterns(spec, 1)
    assert len(pats) == 2 * (2 ** 4 - 1)


def test_slot_pairing_structure():
    """The slot element pairs to zero with its own curve and nonzero with
    the dual curve: the structural facts behind the contribution rule."""
    spec = single_spec()
    assembly = sweep_oracle.assemble_at(spec, 2)
    for pat in admissible_patterns(spec, 2):
        for slot in pat.support:
            block = assembly.blocks[(slot.member, slot.reversed_part)]
            x = reduce_to_isotypic(block.curve_class[slot.curve], pat.prime)
            assert block.form.pairing(
                x, block.curve_class[slot.curve]).is_zero()
            others = [c for c in block.pattern.curve_names() if c != slot.curve]
            assert all(not block.form.pairing(
                x, block.curve_class[c]).is_zero() for c in others)


# -- evaluation ---------------------------------------------------------------------


def expr_set(spec, c):
    out = {}
    for p in admissible_patterns(spec, c):
        out.setdefault(p.class_key, set()).add(str(evaluate_rho(spec, p, c)))
    return out


def test_single_example_expressions():
    spec = single_spec()
    exprs = expr_set(spec, 1)
    assert exprs[str(LaurentPoly.var("s") - Fraction(1, 2))] == \
        {"rB", "-rA", "-rA + rB"}
    assert exprs[str(LaurentPoly.var("s") - 2)] == {"rA", "-rB", "rA - rB"}


def test_equal_companions_cancel():
    spec = single_spec("r", "r")
    vals = [evaluate_rho(spec, p, 1) for p in admissible_patterns(spec, 1)]
    assert any(v.is_exactly_zero() for v in vals)


def test_numeric_mode_requires_values():
    spec = single_spec()
    pats = admissible_patterns(spec, 1)
    with pytest.raises(ObstructionError, match="numeric"):
        evaluate_rho(spec, pats[0], 1, mode="numeric")


def test_numeric_cancellation():
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion.exact("J", Fraction(2, 3)),
        "beta": Companion.exact("J", Fraction(2, 3))})
    spec = FamilySpec.single(K)
    vals = [evaluate_rho(spec, p, 1, mode="numeric")
            for p in admissible_patterns(spec, 1)]
    zeros = [v for v in vals if v.is_exactly_zero()]
    assert zeros  # the two-slot patterns cancel exactly


# -- hypothesis checks -----------------------------------------------------------------


def test_coordinate_check_rejects_a_multiple_of_the_prime():
    p = (2 * T - 1).monic()
    M = AlexanderModule("t", 1, (Summand((p ** 2).monic(), p, 2, "g"),))
    with pytest.raises(ObstructionError, match="divisible by"):
        _unit_coordinate(M.element((p,)), p, "K[1].alpha")
    coord, summand = _unit_coordinate(M.element((p + 1,)), p, "K[1].alpha")
    assert coord == p + 1 and summand.mult == 2
    # a coordinate on another class's summand does not count
    q = T - 2
    N = AlexanderModule("t", 1, (Summand(p, p, 1, "a"), Summand(q, q, 1, "b")))
    with pytest.raises(ObstructionError, match="divisible by"):
        _unit_coordinate(N.element((0, 1)), p, "K[1].alpha")
    assert _unit_coordinate(N.element((3, 1)), p, "K[1].alpha")[0] == 3


def test_bad_curve_self_pairing_raises():
    V = SeifertMatrix([[0, 1], [2, 0]])
    bad = PatternKnot.from_int_vectors(V, {"gamma": (1, 1)}, name="bad")
    K = InfectedKnot.build(bad, {"gamma": Companion.symbol("rG")})
    with pytest.raises(ObstructionError, match="does not extend"):
        verify_obstructed(FamilySpec.single(K), 1)


def test_non_slice_pattern_raises():
    tp = PatternKnot.from_int_vectors(trefoil_right(), {"c1": (1, 0)},
                                      name="trefoil")
    K = InfectedKnot.build(tp, {"c1": Companion.symbol("rT")})
    with pytest.raises(ObstructionError, match="metabolizer"):
        verify_obstructed(FamilySpec.single(K), 1)


# -- verdicts ---------------------------------------------------------------------------


def test_single_example_obstructed():
    report = verify_obstructed(single_spec(), 3)
    assert report.verdict == "OBSTRUCTED"
    assert report.uniform_in_c
    assert len(report.cells) == 6    # three per class, listed at c = 1 only
    assert not report.witnesses
    assert any("metabolizer" in line for line in report.audit)
    assert any("slice-extension" in line for line in report.audit)


def test_family_obstructed():
    report = verify_obstructed(family_spec((1, -2)), 2, cells=True)
    assert all(t.certificate for t in report.slot_types)
    assert report.verdict == "OBSTRUCTED"
    assert all(any(v != 0 for _, v in cell.rho.coeffs) for cell in report.cells)


def test_nothing_is_computed_for_cmax(monkeypatch):
    # the report echoes c_max and is otherwise the same at every c_max, and
    # no form is substituted past c = 1 however large c_max is
    substituted = []
    real = LinkingForm.subs_power

    def spy(self, c, variable=None):
        substituted.append(c)
        return real(self, c, variable)

    monkeypatch.setattr(LinkingForm, "subs_power", spy)
    for spec in (single_spec(), family_spec((1, -2))):
        obstruction._block_form.cache_clear()
        reports = []
        for c_max in (1, 2, 5, 100, 10 ** 6):
            report = verify_obstructed(spec, c_max).to_json()
            assert report.pop("c_max") == c_max
            reports.append(report)
        assert all(report == reports[0] for report in reports)
        assert reports[0]["verdict"] == "OBSTRUCTED"
    assert set(substituted) == {1}
    obstruction._block_form.cache_clear()


def test_equal_companions_inconclusive():
    report = verify_obstructed(single_spec("r", "r"), 2)
    assert report.verdict == "INCONCLUSIVE"
    assert report.witnesses
    w = report.witnesses[0]
    assert len(w.support) == 2  # the cancellation needs both slots
    assert w.rho.is_exactly_zero()


def test_uninfected_inconclusive():
    K = InfectedKnot.build(pattern_9_46(), {})
    report = verify_obstructed(FamilySpec.single(K), 2)
    assert report.verdict == "INCONCLUSIVE"
    assert all(c.rho.is_exactly_zero() for c in report.cells)


def test_symbolic_numeric_consistency():
    # rational stand-ins: all pattern expressions stay nonzero, matching the
    # symbolic verdict
    stand_ins = {"rA1": Fraction(1, 2), "rB1": Fraction(1, 3),
                 "rA2": Fraction(1, 5), "rB2": Fraction(1, 7)}
    members = []
    for i, n in enumerate((1, -1), start=1):
        K = InfectedKnot.build(pattern_9_46(), {
            "alpha": Companion.exact(f"rA{i}", stand_ins[f"rA{i}"]),
            "beta": Companion.exact(f"rB{i}", stand_ins[f"rB{i}"])})
        members.append(FamilyMember(K, n))
    numeric = verify_obstructed(FamilySpec(tuple(members)), 2, mode="numeric")
    symbolic = verify_obstructed(family_spec((1, -1)), 2, mode="symbolic")
    assert numeric.verdict == symbolic.verdict == "OBSTRUCTED"


def test_interval_through_zero_is_inconclusive():
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion.interval("JA", Fraction(-1, 100), Fraction(1, 100)),
        "beta": Companion.interval("JB", Fraction(-1, 100), Fraction(1, 100))})
    report = verify_obstructed(FamilySpec.single(K), 1, mode="numeric")
    assert report.verdict == "INCONCLUSIVE"


def test_other_patterns_and_mixed_family():
    # a different algebraically slice genus-one pattern generalizes the
    # machinery: distinct annihilator pair (2s-3, 3s-2)
    V2 = SeifertMatrix([[0, 2], [3, 0]])
    p2 = PatternKnot.from_int_vectors(V2, {"alpha": (1, 0), "beta": (0, 1)},
                                      name="p23")
    K2 = InfectedKnot.build(p2, {"alpha": Companion.symbol("sA"),
                                 "beta": Companion.symbol("sB")})
    rep = verify_obstructed(FamilySpec.single(K2), 3)
    assert rep.verdict == "OBSTRUCTED" and rep.uniform_in_c

    K1 = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion.symbol("rA"), "beta": Companion.symbol("rB")})
    mix = FamilySpec((FamilyMember(K1, 1), FamilyMember(K2, -1)), ("K1", "K2"))
    repm = verify_obstructed(mix, 2)
    assert repm.verdict == "OBSTRUCTED"
    # each member keeps its own pair of isotypic classes
    assert len({c.class_key for c in repm.cells}) == 4
    assert len(repm.cells) == 12


def test_bad_inputs():
    with pytest.raises(ObstructionError):
        verify_obstructed(single_spec(), 0)
    with pytest.raises(ObstructionError):
        verify_obstructed(single_spec(), 2, mode="fancy")
    with pytest.raises(ObstructionError):
        FamilyMember(InfectedKnot.build(pattern_9_46(), {}), 0)
    with pytest.raises(ObstructionError):
        InfectedKnot.build(pattern_9_46(), {"delta": Companion.symbol("x")})


# -- the sweep against the one-companion-at-a-time oracle ---------------------------


def oracle_rho(assembly, pattern, mode, facts):
    """A cell's expression built one companion at a time; facts caches
    `_slot_contributions` by (prime, slot)."""
    expr = RhoExpr.zero()
    for slot in pattern.support:
        key = (pattern.prime, slot)
        if key not in facts:
            facts[key] = _slot_contributions(assembly, pattern.prime, slot)
        for comp, sign in facts[key][0]:
            expr = _accumulate(expr, comp, sign, mode)
    return expr


def oracle_report(spec, c_max, mode, prefix_sums=False):
    """The subset sweep: one cell per support (with no count vector), each
    evaluated from scratch by adding one companion at a time.  With
    prefix_sums, a support's expression is its prefix's plus its last
    slot's, as the production sweep computed it before count vectors."""
    cells, witnesses, audit, notes = [], [], [], []
    seen_audit = set()
    by_pattern, class_keys_by_c = {}, {}
    for c in range(1, c_max + 1):
        assembly = sweep_oracle.assemble_at(spec, c)
        facts = {}
        audit_line = (f"c={c}: assembled {len(assembly.copies)} blocks; form "
                      "validated hermitian, annihilating and nonsingular "
                      "blockwise; by construction: the assembled form is the "
                      "block sum of the copies' forms")
        if audit_line not in seen_audit:
            seen_audit.add(audit_line)
            audit.append(audit_line)
        patterns = admissible_patterns(spec, c)
        class_keys_by_c[c] = tuple(sorted({p.class_key for p in patterns}))
        if not patterns:
            notes.append(f"c={c}: no admissible patterns (trivial module)")
        sums = {}
        for pat in patterns:
            if prefix_sums:
                last = AdmissiblePattern(pat.prime, pat.class_key,
                                         pat.support[-1:])
                prefix = (sums[(pat.prime, pat.support[:-1])]
                          if len(pat.support) > 1 else RhoExpr.zero())
                expr = sums[(pat.prime, pat.support)] = \
                    prefix + oracle_rho(assembly, last, mode, facts)
            else:
                expr = oracle_rho(assembly, pat, mode, facts)
            for slot in pat.support:
                for line in facts[(pat.prime, slot)][1]:
                    tagged = f"c={c}: {line}"
                    if tagged not in seen_audit:
                        seen_audit.add(tagged)
                        audit.append(tagged)
            ok = expr.is_verifiably_nonzero()
            cell = ReportCell(c, pat.class_key, str(pat.prime), (),
                              tuple(s.label(spec) for s in pat.support),
                              expr, ok)
            cells.append(cell)
            if not ok:
                witnesses.append(cell)
            by_pattern.setdefault((pat.class_key, cell.support), []).append(expr)
    verdict = "OBSTRUCTED" if cells and not witnesses else "INCONCLUSIVE"
    if not cells:
        notes.append("no admissible patterns at any swept complexity; "
                     "nothing to obstruct")
    uniform = bool(cells) and all(
        keys == class_keys_by_c[1] for keys in class_keys_by_c.values())
    if uniform:
        uniform = all(len(exprs) == c_max and all(e == exprs[0] for e in exprs)
                      for exprs in by_pattern.values())
    if uniform:
        notes.append(
            f"uniform-in-c certificate: each pattern's expression is "
            f"independent of the complexity across the sweep 1..{c_max}")
    notes.append(
        f"sweep bound: complexities 1..{c_max} checked; the verdict asserts "
        "nothing beyond this bound")
    notes.append(
        "quantifier discharge: any nonzero element of a self-annihilating "
        "submodule reduces, by the coprime isotypic multipliers, to a "
        "unit-coordinate element supported on an enumerated pattern; such a "
        "submodule is nonzero because the assembled form is nonsingular")
    notes.append(
        "additivity of the invariant over connected-sum and satellite pieces "
        "is axiomatic (standard infection cobordism); its uses are listed in "
        "the audit trail")
    return ObstructionReport(
        verdict=verdict, c_max=c_max, mode=mode, cells=tuple(cells),
        witnesses=tuple(witnesses), audit=tuple(audit),
        uniform_in_c=uniform, notes=tuple(notes))


COUNT_LINE = re.compile(r"^c=\d+: \(.*\) class: .* count vectors stand for")


def expand(cells, report):
    """{(c, class, support set): rho} of the supports the cells stand for:
    each count vector k expands into the prod C(n_t, k_t) supports that
    take k_t of the n_t slots of each type t."""
    tables = {(t.complexity, t.class_key): t for t in report.slot_types}
    out = {}
    for cell in cells:
        table = tables[(cell.complexity, cell.class_key)]
        assert len(cell.counts) == len(table.slots)
        for parts in itertools.product(*(
                itertools.combinations(slots, k)
                for slots, k in zip(table.slots, cell.counts))):
            key = (cell.complexity, cell.class_key,
                   frozenset(itertools.chain(*parts)))
            assert key not in out
            out[key] = cell.rho
    return out


def copy_number(label):
    return int(re.search(r"\[(\d+)\]", label).group(1))


def assert_matches_oracle(report, oracle):
    """The count-vector report stands for exactly the oracle's supports and
    values, with the same verdict, certificate, notes and audit."""
    def keyed(cells):
        return {(c.complexity, c.class_key, frozenset(c.support)): c.rho
                for c in cells}

    assert expand(report.cells, report) == keyed(oracle.cells)
    assert expand(report.witnesses, report) == keyed(oracle.witnesses)
    assert report.witnesses == tuple(c for c in report.cells
                                     if not c.nonvanishing)
    assert (report.verdict, report.uniform_in_c, report.notes) == \
        (oracle.verdict, oracle.uniform_in_c, oracle.notes)
    assert tuple(line for line in report.audit
                 if not COUNT_LINE.match(line)) == oracle.audit
    ordered = {(c.complexity, c.class_key, c.support) for c in oracle.cells}
    for table in report.slot_types:
        for slots in table.slots:
            assert [copy_number(s) for s in slots] == \
                list(range(1, len(slots) + 1))
    tables = {(t.complexity, t.class_key): t for t in report.slot_types}
    for cell in report.cells:
        # the representative support is a real support, in slot order, made
        # of copies 1..k_t of each type
        assert (cell.complexity, cell.class_key, cell.support) in ordered
        table = tables[(cell.complexity, cell.class_key)]
        for slots, k in zip(table.slots, cell.counts):
            assert [s for s in cell.support if s in slots] == list(slots[:k])
    assert sum(1 for line in report.audit if COUNT_LINE.match(line)) == \
        len(report.slot_types)


def full_sweep(spec, c_max, mode="symbolic"):
    """The per-complexity sweep with the complexity-free certificate
    refused, so that every complexity is evaluated."""
    return sweep_oracle.verify_obstructed(spec, c_max, mode, certificate=False)


def certified_sweep(spec, c_max, mode="symbolic"):
    """The per-complexity sweep under the certificate: c = 1 evaluated and
    carried to every later complexity."""
    return sweep_oracle.verify_obstructed(spec, c_max, mode)


CERTIFICATE_NOTE = (
    "complexity-free certificate: every isotypic prime is linear, t - r, "
    "with r neither a p-th power in Q for any prime p nor in -4Q^4, so by "
    "Capelli's theorem p(t^c) stays irreducible; each block form at "
    "complexity c is its c=1 form under t -> t^c, every cell at complexity "
    "c is its c=1 cell with the prime renamed, and the verdict holds for "
    "every c >= 1")
NO_SLOT_NOTE = ("no admissible patterns: every curve class is zero in the "
                "module, so no complexity has a slot; nothing to obstruct")
TRANSPOSITION_NOTE = (
    "transposition certificate: a class with a certificate (y, alpha, beta) "
    "has y.s_t + alpha*lo_t - beta*hi_t > 0 on each slot type t, whose "
    "expression has symbol part s_t and constant interval [lo_t, hi_t]; a "
    "vanishing count vector k would make the sum of k_t times these margins "
    "both > 0 and <= 0 (Motzkin's transposition theorem), so no cell of the "
    "class vanishes")
CHECKED_LINE = re.compile(
    r"^c=1: \((.*)\) class: certificate y = \{.*\}, alpha = \S+, beta = "
    r"\S+ re-checked exactly: y\.s_t \+ alpha\*lo_t - beta\*hi_t > 0 on "
    r"each of its \d+ slot types, so none of its \d+ count vectors vanishes "
    r"\(Motzkin's transposition theorem\)$")
CMAX_NOTE = ("c_max: echoed only, and nothing is computed for it; cells and "
             "slot types are listed at c=1 only")


# The per-copy sweep audits every copy and words its count lines for that;
# the report audits copy 1 of each slot type.
LATER_COPY_LINE = re.compile(r"^c=1: [^\s\[]*\[([2-9]|\d\d+)\]")
SWEEP_COUNT_WORDS = ", and the copies of each type give equal expressions;"
COUNT_WORDS = ("; the slot facts of each type ran once, on copy 1, as its "
               "copies share one block form;")


def without_certificates(tables):
    return tuple(t._replace(certificate=None) for t in tables)


def assert_same_answers(report, old):
    """The c = 1 report answers as a per-complexity sweep does: the same
    verdict and certificate, and its cells, witnesses and slot-type tables
    are the sweep's c = 1 ones, which the sweep repeats at every later c
    with the prime renamed.  Its notes replace the sweep's per-complexity
    notes, and its audit is the sweep's c = 1 lines of copy 1, with the
    count lines reworded, and has no line for any later c."""
    for name in ("verdict", "c_max", "mode", "uniform_in_c"):
        assert getattr(report, name) == getattr(old, name), name
    prime_at_one = {t.class_key: t.prime for t in report.slot_types}
    for name in ("cells", "witnesses", "slot_types"):
        mine, theirs = getattr(report, name), getattr(old, name)
        if name == "slot_types":
            mine = without_certificates(mine)
        assert mine == tuple(x for x in theirs if x.complexity == 1), name
        for c in range(2, old.c_max + 1):
            at_c = [x for x in theirs if x.complexity == c]
            assert [x.prime for x in at_c] == [
                prime_at_one[x.class_key].replace("t", f"t^{c}")
                for x in at_c]
            assert [x._replace(complexity=1, prime=prime_at_one[x.class_key])
                    for x in at_c] == list(mine), (name, c)
    expected = [NO_SLOT_NOTE] if not report.cells else []
    if report.uniform_in_c:
        expected.append(CERTIFICATE_NOTE)
    expected.append(CMAX_NOTE)
    certified = [t for t in report.slot_types if t.certificate]
    if certified:
        expected.append(TRANSPOSITION_NOTE)
    assert report.notes == tuple(expected) + old.notes[-2:]
    at_one = tuple(line.replace(SWEEP_COUNT_WORDS, COUNT_WORDS)
                   for line in old.audit if line.startswith("c=1: ")
                   and not LATER_COPY_LINE.match(line))
    audit = [line for line in report.audit if not CHECKED_LINE.match(line)]
    assert audit == list(at_one)
    # one re-check line per certified class, after that class's count line
    checked = [line for line in report.audit if CHECKED_LINE.match(line)]
    assert [CHECKED_LINE.match(line).group(1) for line in checked] == \
        [t.prime for t in certified]
    for line, table in zip(checked, certified):
        assert report.audit[report.audit.index(line) - 1] == \
            obstruction._count_line(table)


def random_companion(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "symbol":
        return Companion.symbol(rng.choice(("ra", "rb", "rc")))
    if kind == "trivial":
        return None
    v = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    if kind == "exact":
        return Companion.exact("J", v)
    return Companion.interval("I", v, v + Fraction(rng.randint(0, 2), 100))


def random_family(rng, max_copies, kinds, most=None, shared=0.0):
    """A 9_46 family with at most max_copies copies in all, so at most
    2 * max_copies slots per isotypic class, and at most `most` copies per
    member.  Companions come from small pools, so that cells can cancel;
    with probability `shared` a member ties one companion through both
    curves, so that its K and -tK slots cancel."""
    members, left = [], rng.randint(1, max_copies)
    while left:
        n = rng.randint(1, min(left, most or left))
        left -= n
        comps = [random_companion(rng, kinds) for _ in range(2)]
        if shared and rng.random() < shared:
            comps[1] = comps[0]
        infections = {curve: comp
                      for curve, comp in zip(("alpha", "beta"), comps)
                      if comp is not None}
        K = InfectedKnot.build(pattern_9_46(), infections)
        members.append(FamilyMember(K, n * rng.choice((1, -1))))
    return FamilySpec(tuple(members),
                      tuple(f"K{i}" for i in range(1, len(members) + 1)))


SYMBOLIC_KINDS = ("symbol", "symbol", "exact", "interval", "trivial")
NUMERIC_KINDS = ("exact", "exact", "interval", "trivial")


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_oracle(seed):
    rng = random.Random(7100 + seed)
    mode = ("symbolic", "numeric")[seed % 2]
    kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS
    c_max = 1 + seed // 4
    spec = random_family(rng, 4 if seed % 4 == 3 else 3, kinds)
    report = full_sweep(spec, c_max, mode)
    oracle = oracle_report(spec, c_max, mode)
    assert_matches_oracle(report, oracle)
    mine = verify_obstructed(spec, c_max, mode, cells=True)
    assert_same_answers(mine, report)
    assert_same_answers(mine, certified_sweep(spec, c_max, mode))
    assert oracle_report(spec, c_max, mode, prefix_sums=True) == oracle
    assembly, facts = sweep_oracle.assemble_at(spec, c_max), {}
    for pat in admissible_patterns(spec, c_max):
        assert evaluate_rho(spec, pat, c_max, mode) == \
            oracle_rho(assembly, pat, mode, facts)


@pytest.mark.parametrize("mode", ("symbolic", "numeric"))
def test_twelve_slot_sweep_matches_oracle(mode):
    rng = random.Random(7200)
    kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS
    while True:
        spec = random_family(rng, 6, kinds)
        if sum(abs(m.multiplicity) for m in spec.members) == 6:
            break
    report = full_sweep(spec, 1, mode)
    oracle = oracle_report(spec, 1, mode)
    assert_same_answers(verify_obstructed(spec, 1, mode, cells=True), report)
    assert len(oracle.cells) == 2 * (2 ** 12 - 1)
    # each member gives a K and a -tK slot type of |n_i| copies per class
    assert len(report.cells) == 2 * (math.prod(
        (abs(m.multiplicity) + 1) ** 2 for m in spec.members) - 1)
    assert_matches_oracle(report, oracle)


@pytest.mark.parametrize("mode", ("symbolic", "numeric"))
def test_repeated_copies_sweep_matches_oracle(mode):
    rng = random.Random(7400)
    kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS
    witnessed = repeated = 0
    for c_max in (1, 1, 2, 2, 3, 3):
        spec = random_family(rng, 6, kinds, most=4, shared=0.4)
        report = full_sweep(spec, c_max, mode)
        assert_matches_oracle(
            report, oracle_report(spec, c_max, mode, prefix_sums=True))
        assert_same_answers(verify_obstructed(spec, c_max, mode, cells=True),
                            report)
        witnessed += bool(report.witnesses)
        repeated += any(abs(m.multiplicity) > 1 for m in spec.members)
    assert witnessed >= 2 and repeated >= 3


@pytest.mark.parametrize("mode", ("symbolic", "numeric"))
def test_single_copy_cells_match_oracle_in_order(mode):
    # with one copy per type the count vectors are the supports, listed in
    # the oracle's order
    rng = random.Random(7500)
    kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS

    def without_counts(cells):
        return [{k: v for k, v in cell.to_json().items() if k != "counts"}
                for cell in cells]

    for c_max in (1, 2, 2):
        spec = random_family(rng, 4, kinds, most=1, shared=0.4)
        report = full_sweep(spec, c_max, mode)
        oracle = oracle_report(spec, c_max, mode)
        assert_matches_oracle(report, oracle)
        assert_same_answers(verify_obstructed(spec, c_max, mode, cells=True),
                            report)
        assert without_counts(report.cells) == without_counts(oracle.cells)
        assert without_counts(report.witnesses) == \
            without_counts(oracle.witnesses)
        assert all(set(cell.counts) <= {0, 1} for cell in report.cells)


def test_slot_type_bound_is_checked_before_any_slot(monkeypatch):
    assert MAX_SLOT_TYPES_PER_CLASS == 32

    def unreachable(*args):
        raise AssertionError("a slot was evaluated")

    # seventeen single-copy members: 34 slot types per class
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_slot_expr", unreachable)
        with pytest.raises(ObstructionError, match=r"\(t - 2\) class has 34 "
                           "slot types, more than MAX_SLOT_TYPES_PER_CLASS = "
                           "32"):
            verify_obstructed(family_spec((1,) * 17), 1)
        m.setattr(obstruction, "MAX_SLOT_TYPES_PER_CLASS", 4)
        with pytest.raises(ObstructionError, match="has 6 slot types"):
            verify_obstructed(family_spec((1, -1, 1)), 1)
    # the bound admits exactly its own number
    report = verify_obstructed(family_spec((1, -1) * 8), 1)
    assert [len(t.slots) for t in report.slot_types] == [32, 32]
    assert report.obstructed
    monkeypatch.setattr(obstruction, "MAX_SLOT_TYPES_PER_CLASS", 4)
    assert verify_obstructed(family_spec((1, -1)), 1).obstructed


def test_count_vector_bound_is_checked_before_any_cell(monkeypatch):
    assert MAX_CELLS_PER_CLASS == 2 ** 20 - 1

    def unreachable(*args):
        raise AssertionError("a class was enumerated")

    # eleven single-copy members: 22 slot types, 2^22 - 1 count vectors;
    # the certificate decides them, and only cells=True enumerates them
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_sweep_class", unreachable)
        assert verify_obstructed(family_spec((1,) * 11), 1).obstructed
        with pytest.raises(ObstructionError, match="4194303 count vectors"):
            verify_obstructed(family_spec((1,) * 11), 1, cells=True)
    # the bound admits exactly its own number: two single-copy members give
    # 2^4 - 1 count vectors per class
    monkeypatch.setattr(obstruction, "MAX_CELLS_PER_CLASS", 15)
    assert verify_obstructed(family_spec((1, -1)), 1, cells=True).obstructed
    monkeypatch.setattr(obstruction, "MAX_CELLS_PER_CLASS", 14)
    assert verify_obstructed(family_spec((1, -1)), 1).obstructed
    with pytest.raises(ObstructionError, match="15 count vectors"):
        verify_obstructed(family_spec((1, -1)), 1, cells=True)


def test_support_bound_is_checked_before_any_cell(monkeypatch):
    assert MAX_SUPPORT_ENTRIES_PER_CLASS == 2 ** 20

    def unreachable(*args):
        raise AssertionError("a class was enumerated")

    # one member of multiplicity 101: two slot types of 101 copies per
    # class, 102^2 count vectors whose supports list 102^2 * 202 / 2 labels
    # (multiplicity 100 gives 1,020,100); the certificate decides them
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_sweep_class", unreachable)
        assert verify_obstructed(family_spec((101,)), 1).obstructed
        with pytest.raises(ObstructionError, match="list 1050804 slot labels, "
                           "more than MAX_SUPPORT_ENTRIES_PER_CLASS = 1048576"):
            verify_obstructed(family_spec((101,)), 1, cells=True)
    # the bound admits exactly its own number: two single-copy members give
    # 2^4 count vectors per class, whose supports list 2^4 * 4 / 2 labels
    monkeypatch.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 32)
    assert verify_obstructed(family_spec((1, -1)), 1, cells=True).obstructed
    monkeypatch.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 31)
    assert verify_obstructed(family_spec((1, -1)), 1).obstructed
    with pytest.raises(ObstructionError, match="list 32 slot labels"):
        verify_obstructed(family_spec((1, -1)), 1, cells=True)


def test_slot_labels_are_bounded_before_any_slot(monkeypatch):
    # every report lists each slot type's labels, one per copy: a member of
    # multiplicity 2^19 + 1 gives 2^20 + 2 of them per class
    def unreachable(*args):
        raise AssertionError("a slot was evaluated")

    with monkeypatch.context() as m:
        m.setattr(obstruction, "_slot_expr", unreachable)
        with pytest.raises(ObstructionError, match=r"the slot types of the "
                           r"\(t - 2\) class list 1048578 slot labels, more "
                           "than MAX_SUPPORT_ENTRIES_PER_CLASS = 1048576"):
            verify_obstructed(family_spec((2 ** 19 + 1,)), 1)
        m.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 3)
        with pytest.raises(ObstructionError, match="list 4 slot labels"):
            verify_obstructed(family_spec((1, -1)), 1)
    # the bound admits exactly its own number: the classes are certified
    monkeypatch.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 4)
    assert verify_obstructed(family_spec((1, -1)), 1).obstructed


def test_support_bound_counts_the_listed_labels():
    report = verify_obstructed(family_spec((1, -2, 3)), 1, cells=True)
    for table in report.slot_types:
        sizes = [len(labels) for labels in table.slots]
        listed = sum(len(cell.support) for cell in report.cells
                     if cell.class_key == table.class_key)
        assert listed == math.prod(n + 1 for n in sizes) * sum(sizes) // 2


def test_multiplicity_forty_member_runs():
    # 80 slots per class, once refused by a bound of 20 slots
    report = verify_obstructed(family_spec((40,)), 1, cells=True)
    assert report.verdict == "OBSTRUCTED"
    assert len(report.cells) == 2 * (41 ** 2 - 1)
    assert [len(slots) for t in report.slot_types for slots in t.slots] == \
        [40] * 4


def test_numeric_symbol_error_matches_oracle():
    rng = random.Random(7300)
    for _ in range(6):
        spec = random_family(rng, 3, ("symbol", "exact", "interval"))
        if not any(comp.rho.kind == "symbol" for m in spec.members
                   for _, comp in m.knot.infections):
            continue
        with pytest.raises(ObstructionError, match="numeric") as got:
            verify_obstructed(spec, 1, "numeric")
        with pytest.raises(ObstructionError) as want:
            oracle_report(spec, 1, "numeric")
        assert str(got.value) == str(want.value)


# -- the complexity-free certificate -------------------------------------------------


def random_pattern(rng):
    """A genus-one pattern [[0, a], [a ± 1, d]] with |a| <= 30.  With d != 0
    only beta pairs to zero with itself, so only beta is a curve."""
    a = rng.choice([n for n in range(-30, 31) if n not in (-1, 0, 1)])
    b = a + rng.choice((1, -1))
    d = rng.choice((0, 0, rng.randint(-3, 3)))
    curves = {"alpha": (1, 0), "beta": (0, 1)} if d == 0 else {"beta": (0, 1)}
    return PatternKnot.from_int_vectors(
        SeifertMatrix([[0, a], [b, d]]), curves, name=f"P[{a},{b},{d}]")


def random_pattern_family(rng, members, most):
    out = []
    for _ in range(members):
        pattern = random_pattern(rng)
        infections = {}
        for curve in pattern.curve_names():
            comp = random_companion(rng, SYMBOLIC_KINDS)
            if comp is not None:
                infections[curve] = comp
        out.append(FamilyMember(InfectedKnot.build(pattern, infections),
                                rng.randint(1, most) * rng.choice((1, -1))))
    return FamilySpec(tuple(out),
                      tuple(f"K{i}" for i in range(1, members + 1)))


@pytest.mark.parametrize("seed", range(16))
def test_certificate_sweep_matches_full_sweep(seed):
    rng = random.Random(7600 + seed)
    mode = "symbolic"
    if seed < 8:
        spec = random_pattern_family(rng, 1, 1)
        c_max = 12 if seed < 2 else rng.randint(2, 12)
    elif seed < 12:
        spec = random_pattern_family(rng, 2, 2)
        c_max = rng.randint(2, 8)
    else:
        mode = ("symbolic", "numeric")[seed % 2]
        kinds = SYMBOLIC_KINDS if mode == "symbolic" else NUMERIC_KINDS
        spec = random_family(rng, 3, kinds, shared=0.4)
        c_max = rng.randint(2, 6)
    report = verify_obstructed(spec, c_max, mode, cells=True)
    assert report.uniform_in_c
    assert_same_answers(report, full_sweep(spec, c_max, mode))
    assert_same_answers(report, certified_sweep(spec, c_max, mode))


def test_random_metabolic_conjugates_are_certified():
    # a unimodular congruence P^T V P keeps the module and the metabolizer
    rng = random.Random(7700)
    for _ in range(100):
        a = rng.choice([n for n in range(-40, 41) if n not in (-1, 0, 1)])
        V = [[0, a], [a + rng.choice((1, -1)), rng.randint(-5, 5)]]
        for _ in range(3):
            k = rng.randint(-3, 3)
            P = rng.choice(([[1, k], [0, 1]], [[1, 0], [k, 1]], [[0, 1], [-1, 0]]))
            V = [[sum(P[r][i] * V[r][s] * P[s][j] for r in range(2)
                      for s in range(2)) for j in range(2)] for i in range(2)]
        seifert = SeifertMatrix(V)
        assert metabolizer_search(seifert) is not None
        primes = list(isotypic_decompose(alexander_module(seifert)))
        assert len(primes) == 2 and all(capelli_certified(p) for p in primes), \
            (V, primes)


def test_certificate_is_refused_for_splitting_and_nonlinear_primes(
        monkeypatch):
    # 4t - 1 splits at c = 2: t^2 - 1/4 = (t - 1/2)(t + 1/2)
    assert len(factor_laurent((4 * T - 1).subs_power(2))) == 2
    for prime in (T - 2, 4 * T - 1, T * T + 2):
        first = prime.monic()
        block = hyperbolic_form(prime)
        with monkeypatch.context() as m:
            m.setattr(obstruction, "_block_form", lambda pattern: block)
            if prime == T - 2:
                # the certified shape of 9_46 itself answers
                assert verify_obstructed(single_spec(), 3).uniform_in_c
                continue
            with pytest.raises(ObstructionError, match="certificate refused "
                               r"for the isotypic prime\(s\) ") as err:
                verify_obstructed(single_spec(), 3)
        assert f"({first})" in str(err.value)
        assert "(at - b)(bt - a) with |a - b| = 1" in str(err.value)


def test_refused_certificate_without_slots_is_inconclusive():
    # Delta = t is a unit: the module is trivial and nothing is certified
    trivial = PatternKnot.from_int_vectors(
        SeifertMatrix([[0, 1], [0, 0]]), {"alpha": (1, 0)}, name="trivial")
    # the trefoil's prime t^2 - t + 1 is refused, and a zero curve has no slot
    quiet = PatternKnot.from_int_vectors(trefoil_right(), {"c1": (0, 0)},
                                         name="trefoil")
    for pattern, curve in ((trivial, "alpha"), (quiet, "c1")):
        spec = FamilySpec.single(InfectedKnot.build(
            pattern, {curve: Companion.symbol("rA")}))
        report = verify_obstructed(spec, 3)
        assert (report.verdict, report.cells, report.uniform_in_c) == \
            ("INCONCLUSIVE", (), False)
        assert report.notes[0] == NO_SLOT_NOTE
        assert_same_answers(report, full_sweep(spec, 3))


def test_slot_facts_run_at_c1_only_under_the_certificate(monkeypatch):
    calls = []
    real = obstruction._slot_contributions

    def counted(assembly, prime, slot):
        calls.append((prime.span, slot.copy))
        return real(assembly, prime, slot)

    monkeypatch.setattr(obstruction, "_slot_contributions", counted)
    spec = family_spec((1, -2))
    # 2 members, each with a K and a -tK slot type per class, 2 classes
    report = verify_obstructed(spec, 4, cells=True)
    assert calls == [(1, 1)] * 8
    calls.clear()
    # the per-complexity sweep evaluates all 6 slots per class at every c
    assert_same_answers(report, full_sweep(spec, 4))
    assert sorted(span for span, _ in calls) == \
        [c for c in (1, 2, 3, 4) for _ in range(12)]
    assert sorted(copy for _, copy in calls) == [1] * 32 + [2] * 16


def test_one_block_per_member_part(monkeypatch):
    calls = []
    real = obstruction._slot_contributions

    def counted(assembly, prime, slot):
        calls.append(slot)
        return real(assembly, prime, slot)

    spec = family_spec((40,))
    assert len(obstruction._assemble_full(spec).blocks) == 2
    monkeypatch.setattr(obstruction, "_slot_contributions", counted)
    report = verify_obstructed(spec, 1, cells=True)
    assert len(calls) == 4 and {slot.copy for slot in calls} == {1}
    monkeypatch.undo()
    old = full_sweep(spec, 1)
    assert (report.cells, without_certificates(report.slot_types)) == \
        (old.cells, old.slot_types)
    assert_same_answers(report, old)


def test_validation_runs_at_every_complexity(monkeypatch):
    # a mutant substitution that makes every Gram entry at c = bad_c zero,
    # so the form singular: validation at that complexity refuses it, in
    # the substituted form and in the per-complexity sweep, while the
    # report computes nothing past c = 1 and is unchanged
    real = FracCoset.subs_power
    form = blanchfield_form(pattern_9_46())[0]
    for bad_c in (2, 3):
        def singular(self, c, variable=None):
            if c == bad_c:
                return FracCoset.zero(variable or self.variable)
            return real(self, c, variable)

        sweep_oracle.block_form_at_c.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(FracCoset, "subs_power", singular)
            form.subs_power(bad_c - 1).validate()
            with pytest.raises(FormError, match="form is singular"):
                form.subs_power(bad_c).validate()
            full_sweep(single_spec(), bad_c - 1)
            with pytest.raises(FormError, match="form is singular"):
                full_sweep(single_spec(), 3)
            assert verify_obstructed(single_spec(), 3).obstructed
    sweep_oracle.block_form_at_c.cache_clear()


def test_large_coefficient_pattern_runs_in_seconds():
    # Delta = (pt - (p+1))((p+1)t - p) for a 15-digit prime p: the rational
    # roots come from the discriminant, and no integer is factored
    p = 100000000000031
    pattern = PatternKnot.from_int_vectors(
        SeifertMatrix([[0, p], [p + 1, 0]]), {"alpha": (1, 0), "beta": (0, 1)},
        name="P")
    spec = FamilySpec.single(InfectedKnot.build(pattern, {
        "alpha": Companion.symbol("rA"), "beta": Companion.symbol("rB")}))
    start = time.perf_counter()
    for c_max in (1, 12):
        report = verify_obstructed(spec, c_max)
        assert report.obstructed and report.uniform_in_c
    assert time.perf_counter() - start < 5.0
