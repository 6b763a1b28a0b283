import itertools
import json
import math
import random
import re
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import sweep_oracle
from rhoslice import almodule, cli, obstruction
from rhoslice.almodule import (
    AlexanderModule,
    FracCoset,
    Summand,
    alexander_module,
    isotypic_decompose,
    reduce_to_isotypic,
)
from rhoslice.blanchfield import FormError, LinkingForm, blanchfield_form
from rhoslice.cli import main
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
    SlotTypeTable,
    _slot_expr,
    _unit_coordinate,
    verify_obstructed,
)
from rhoslice.factor import capelli_certified, factor_laurent
from rhoslice.polyalg import LaurentPoly
from rhoslice.seifert import PatternKnot, SeifertMatrix, metabolizer_search, pattern_9_46, trefoil_right

from conftest import (hyperbolic_form, prime_family, rho_of, symbol,
                      verifiably_nonzero)

T = LaurentPoly.var("t")


def single_spec(alpha="rA", beta="rB"):
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion(alpha, symbol(alpha)),
        "beta": Companion(beta, symbol(beta))})
    return FamilySpec.single(K)


def family_spec(multiplicities=(1, -2, 3)):
    members = []
    for i, n in enumerate(multiplicities, start=1):
        K = InfectedKnot.build(pattern_9_46(), {
            "alpha": Companion(f"rA{i}", symbol(f"rA{i}")),
            "beta": Companion(f"rB{i}", symbol(f"rB{i}"))})
        members.append(FamilyMember(K, n))
    return FamilySpec(tuple(members),
                      tuple(f"K{i}" for i in range(1, len(members) + 1)))


# -- RhoExpr ---------------------------------------------------------------------


def test_rhoexpr_canonical():
    e = symbol("rB") + -symbol("rA")
    assert e.coefficient("rA") == -1 and e.coefficient("rB") == 1
    assert verifiably_nonzero(e)
    cancel = e + symbol("rA") + -symbol("rB")
    assert cancel == RhoExpr.zero()
    assert not verifiably_nonzero(cancel)


def test_rhoexpr_intervals():
    e = RhoExpr.zero() + RhoExpr(Fraction(-1, 10), Fraction(1, 10))
    assert not verifiably_nonzero(e)
    e2 = RhoExpr.zero() + RhoExpr(Fraction(1, 10), Fraction(2, 10))
    assert verifiably_nonzero(e2)
    e3 = e2 + -RhoExpr(Fraction(1, 10), Fraction(2, 10))
    assert not verifiably_nonzero(e3)


def test_rhoexpr_str():
    interval = RhoExpr(Fraction(-1, 2), Fraction(1, 3))
    assert str(RhoExpr.zero() + interval) == "[-1/2, 1/3]"
    assert str(rho_of(x=1) + interval) == "x + [-1/2, 1/3]"
    assert str(rho_of(x=-2) + -interval) == \
        "-2*x + [-1/3, 1/2]"
    assert str(rho_of(Fraction(-1, 2), x=1, y=-3)) == "x - 3*y - 1/2"
    assert str(RhoExpr.zero()) == "0"


def random_rho(rng):
    kind = rng.choice(("symbol", "exact", "interval"))
    if kind == "symbol":
        return symbol(rng.choice(("ra", "rb", "rc")))
    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "exact":
        return RhoExpr(v, v)
    return RhoExpr(v, v + Fraction(rng.randint(0, 3), 4))


def add_value(expr, rho, sign):
    """expr + sign * rho by the kind of the companion value rho: a symbol
    adds sign to its coefficient, an exact value sign * v to both ends, an
    interval its ends, swapped and negated when sign < 0.  The dispatch the
    engine ran before a companion's value was a RhoExpr, kept as the oracle
    for + and unary -."""
    if rho.coeffs:
        (name, one), = rho.coeffs
        assert one == 1
        d = dict(expr.coeffs)
        d[name] = d.get(name, Fraction(0)) + sign
        return RhoExpr(expr.const_lo, expr.const_hi,
                       tuple(sorted((k, v) for k, v in d.items() if v != 0)))
    if rho.const_lo == rho.const_hi:
        v = sign * rho.const_lo
        return RhoExpr(expr.const_lo + v, expr.const_hi + v, expr.coeffs)
    lo, hi = rho.const_lo, rho.const_hi
    if sign < 0:
        lo, hi = -hi, -lo
    return RhoExpr(expr.const_lo + lo, expr.const_hi + hi, expr.coeffs)


def chained(values):
    expr = RhoExpr.zero()
    for rho, sign in values:
        expr = add_value(expr, rho, sign)
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


def test_signed_values_add_as_the_value_dispatch():
    # the engine adds a companion's value, or its negation for a -1 block
    rng = random.Random(7003)
    for _ in range(300):
        expr = chained(random_values(rng))
        rho, sign = random_rho(rng), rng.choice((1, -1))
        assert expr + (rho if sign > 0 else -rho) == add_value(expr, rho,
                                                                sign)
        assert -rho == add_value(RhoExpr.zero(), rho, -1)
        assert -(-expr) == expr


def test_rhoexpr_add_commutative_and_associative():
    rng = random.Random(7002)
    for _ in range(300):
        a, b, c = (chained(random_values(rng)) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + RhoExpr.zero() == a == RhoExpr.zero() + a


def test_rhoexpr_add_cancels_and_adds_interval_ends():
    a = rho_of(1, rA=2, rB=-1)
    total = a + rho_of(-1, rA=-2, rC=Fraction(1, 3))
    assert total.coeffs == (("rB", Fraction(-1)), ("rC", Fraction(1, 3)))
    assert total.const_lo == total.const_hi == 0
    assert a + rho_of(-1, rA=-2, rB=1) == RhoExpr.zero()
    i = RhoExpr.zero() + RhoExpr(Fraction(-1, 10), Fraction(3, 10))
    j = RhoExpr.zero() + -RhoExpr(Fraction(1, 5), Fraction(1, 2))
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


def reduced_class(assembly, prime, slot):
    """The slot's curve class reduced to the prime's isotypic class."""
    block = assembly.blocks[(slot.member, slot.reversed_part)]
    return reduce_to_isotypic(block.curve_class[slot.curve], prime)


def evaluate_rho(spec, pattern, c, mode="symbolic"):
    """A support's expression: the sum of its slots' expressions."""
    assembly = sweep_oracle.assemble_at(spec, c)
    return sum((_slot_expr(assembly, pattern.prime, slot,
                           reduced_class(assembly, pattern.prime, slot),
                           mode)[0]
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
    assert any(v == RhoExpr.zero() for v in vals)


def test_numeric_mode_requires_values():
    spec = single_spec()
    pats = admissible_patterns(spec, 1)
    with pytest.raises(ObstructionError, match="numeric"):
        evaluate_rho(spec, pats[0], 1, mode="numeric")


def test_numeric_cancellation():
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion("J", rho_of(Fraction(2, 3))),
        "beta": Companion("J", rho_of(Fraction(2, 3)))})
    spec = FamilySpec.single(K)
    vals = [evaluate_rho(spec, p, 1, mode="numeric")
            for p in admissible_patterns(spec, 1)]
    zeros = [v for v in vals if v == RhoExpr.zero()]
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
    K = InfectedKnot.build(bad, {
        "gamma": Companion("rG", symbol("rG"))})
    with pytest.raises(ObstructionError, match="does not extend"):
        verify_obstructed(FamilySpec.single(K), 1)


def test_non_slice_pattern_raises():
    tp = PatternKnot.from_int_vectors(trefoil_right(), {"c1": (1, 0)},
                                      name="trefoil")
    K = InfectedKnot.build(tp, {
        "c1": Companion("rT", symbol("rT"))})
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
    # no form is substituted, however large c_max is: each block form is
    # built in t
    substituted = []
    real = LinkingForm.subs_power

    def spy(self, c, variable=None):
        substituted.append(c)
        return real(self, c, variable)

    monkeypatch.setattr(LinkingForm, "subs_power", spy)
    for spec in (single_spec(), family_spec((1, -2))):
        reports = []
        for c_max in (1, 2, 5, 100, 10 ** 6):
            report = verify_obstructed(spec, c_max).to_json()
            assert report.pop("c_max") == c_max
            reports.append(report)
        assert all(report == reports[0] for report in reports)
        assert reports[0]["verdict"] == "OBSTRUCTED"
    assert set(substituted) == set()


def test_each_block_pattern_is_built_once_per_call(monkeypatch):
    # members sharing a pattern build its form once in a call, and nothing
    # is kept between calls: a second call builds every form again
    built = []

    def spy(pattern, *args):
        built.append(pattern)
        return blanchfield_form(pattern, *args)

    monkeypatch.setattr(obstruction, "blanchfield_form", spy)
    p2 = PatternKnot.from_int_vectors(
        SeifertMatrix([[0, 2], [3, 0]]), {"alpha": (1, 0), "beta": (0, 1)},
        name="P2")
    members = list(family_spec((1, -2, 3)).members) + [FamilyMember(
        InfectedKnot.build(p2, {
            "alpha": Companion("rC", symbol("rC")),
            "beta": Companion("rD", symbol("rD"))}), 2)]
    spec = FamilySpec(tuple(members), ("K1", "K2", "K3", "K4"))
    patterns = {pattern_9_46(), pattern_9_46().transform("inverse"), p2,
                p2.transform("inverse")}
    assert len(patterns) == 4
    for spec, distinct in ((single_spec(), 2), (spec, 4)):
        for _ in range(2):
            built.clear()
            verify_obstructed(spec, 1)
            assert len(built) == len(set(built)) == distinct
            assert set(built) <= patterns


def test_each_slot_type_is_reduced_once(monkeypatch):
    # one 9_46 member has a K and a -tK block of two curves each, and each
    # block has both primes: each curve class is reduced once per prime of
    # its block, and the slot facts take that class.  No module is summed
    # and no form substituted
    reduced = []
    real = obstruction.reduce_to_isotypic

    def spy(x, prime):
        reduced.append(prime)
        return real(x, prime)

    def unreachable(*args):
        raise AssertionError("a module was summed or a form substituted")

    monkeypatch.setattr(obstruction, "reduce_to_isotypic", spy)
    monkeypatch.setattr(almodule, "direct_sum", unreachable)
    monkeypatch.setattr(obstruction, "direct_sum", unreachable, raising=False)
    monkeypatch.setattr(LinkingForm, "subs_power", unreachable)
    assert verify_obstructed(single_spec(), 3).obstructed
    assert len(reduced) == 8
    assert sorted(map(reduced.count, set(reduced))) == [4, 4]


def test_equal_companions_inconclusive():
    report = verify_obstructed(single_spec("r", "r"), 2)
    assert report.verdict == "INCONCLUSIVE"
    assert report.witnesses
    w = report.witnesses[0]
    assert len(w.support) == 2  # the cancellation needs both slots
    assert w.rho == RhoExpr.zero()


def test_uninfected_inconclusive():
    K = InfectedKnot.build(pattern_9_46(), {})
    report = verify_obstructed(FamilySpec.single(K), 2)
    assert report.verdict == "INCONCLUSIVE"
    assert all(c.rho == RhoExpr.zero() for c in report.cells)


def test_symbolic_numeric_consistency():
    # rational stand-ins: all pattern expressions stay nonzero, matching the
    # symbolic verdict
    stand_ins = {"rA1": Fraction(1, 2), "rB1": Fraction(1, 3),
                 "rA2": Fraction(1, 5), "rB2": Fraction(1, 7)}
    members = []
    for i, n in enumerate((1, -1), start=1):
        K = InfectedKnot.build(pattern_9_46(), {
            "alpha": Companion(f"rA{i}",
                               rho_of(stand_ins[f"rA{i}"])),
            "beta": Companion(f"rB{i}",
                              rho_of(stand_ins[f"rB{i}"]))})
        members.append(FamilyMember(K, n))
    numeric = verify_obstructed(FamilySpec(tuple(members)), 2, mode="numeric")
    symbolic = verify_obstructed(family_spec((1, -1)), 2, mode="symbolic")
    assert numeric.verdict == symbolic.verdict == "OBSTRUCTED"


def test_interval_through_zero_is_inconclusive():
    K = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion("JA", RhoExpr(Fraction(-1, 100),
                                                       Fraction(1, 100))),
        "beta": Companion("JB", RhoExpr(Fraction(-1, 100),
                                                      Fraction(1, 100)))})
    report = verify_obstructed(FamilySpec.single(K), 1, mode="numeric")
    assert report.verdict == "INCONCLUSIVE"


def test_other_patterns_and_mixed_family():
    # a different algebraically slice genus-one pattern generalizes the
    # machinery: distinct annihilator pair (2s-3, 3s-2)
    V2 = SeifertMatrix([[0, 2], [3, 0]])
    p2 = PatternKnot.from_int_vectors(V2, {"alpha": (1, 0), "beta": (0, 1)},
                                      name="p23")
    K2 = InfectedKnot.build(p2, {
        "alpha": Companion("sA", symbol("sA")),
        "beta": Companion("sB", symbol("sB"))})
    rep = verify_obstructed(FamilySpec.single(K2), 3)
    assert rep.verdict == "OBSTRUCTED" and rep.uniform_in_c

    K1 = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion("rA", symbol("rA")),
        "beta": Companion("rB", symbol("rB"))})
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
        InfectedKnot.build(pattern_9_46(), {
            "delta": Companion("x", symbol("x"))})


# -- the sweep against the one-companion-at-a-time oracle ---------------------------


def oracle_rho(assembly, pattern, mode, facts):
    """A cell's expression built one slot at a time; facts caches
    `_slot_expr` by (prime, slot)."""
    expr = RhoExpr.zero()
    for slot in pattern.support:
        key = (pattern.prime, slot)
        if key not in facts:
            facts[key] = _slot_expr(
                assembly, pattern.prime, slot,
                reduced_class(assembly, pattern.prime, slot), mode)
        expr = expr + facts[key][0]
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
            ok = verifiably_nonzero(expr)
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


COUNT_LINE = re.compile(r"^c=\d+: \(.*\) class: .* count vectors .*stand for")


def copy_labels(label, n):
    """The labels of copies 1..n of the slot type whose copy-1 label is
    `label`; no member name here holds "[1]"."""
    head, tail = label.split("[1]", 1)
    return [f"{head}[{k}]{tail}" for k in range(1, n + 1)]


def counted_slots(table):
    """The slots that each entry of a cell's `counts` takes from: every copy
    of the types of one distinct expression, or of one type of the
    unmerged tables of the per-copy sweep."""
    if isinstance(table, sweep_oracle.TypeTable):
        return [list(slots) for slots in table.slots]
    return [[slot for label, n in types for slot in copy_labels(label, n)]
            for types in table.types]


def merged(table):
    """A per-copy sweep's table with its types of equal expression merged,
    in order of first appearance, as the report lists them."""
    groups = {}
    for slots, expr in zip(table.slots, table.rho):
        groups.setdefault(expr, []).append((slots[0], len(slots)))
    return SlotTypeTable(table.complexity, table.class_key, table.prime,
                         tuple(map(tuple, groups.values())), tuple(groups))


def expand(cells, report):
    """{(c, class, support set): rho} of the supports the cells stand for:
    each count vector K expands into the prod C(N_e, K_e) supports that
    take K_e of the N_e slots of each entry e of `counts`."""
    tables = {(t.complexity, t.class_key): counted_slots(t)
              for t in report.slot_types}
    out = {}
    for cell in cells:
        counted = tables[(cell.complexity, cell.class_key)]
        assert len(cell.counts) == len(counted)
        for parts in itertools.product(*(
                itertools.combinations(slots, k)
                for slots, k in zip(counted, cell.counts))):
            key = (cell.complexity, cell.class_key,
                   frozenset(itertools.chain(*parts)))
            assert key not in out
            out[key] = cell.rho
    return out


def assert_representatives(report, order):
    """Each listed cell's representative support takes the count of each
    distinct expression from its types in type order, copies 1..k_t of
    each, and lists them in slot order, given as {class: {slot: index}}."""
    tables = {t.class_key: t for t in report.slot_types}
    for cell in report.cells + report.witnesses:
        table = tables[cell.class_key]
        assert list(cell.support) == sorted(cell.support,
                                            key=order[cell.class_key].get)
        for types, k in zip(table.types, cell.counts):
            taken = []
            for label, n in types:
                taken += copy_labels(label, min(k, n))
                k -= min(k, n)
            slots = {slot for label, n in types
                     for slot in copy_labels(label, n)}
            assert {slot for slot in cell.support if slot in slots} == \
                set(taken)
        assert len(cell.support) == sum(cell.counts)


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
    "has y.s_e + alpha*lo_e - beta*hi_e > 0 on each distinct expression e of "
    "its slot types, with symbol part s_e and constant interval [lo_e, "
    "hi_e]; a vanishing count vector K would make the sum of K_e times these "
    "margins both > 0 and <= 0 (Motzkin's transposition theorem), so no cell "
    "of the class vanishes")
CHECKED_LINE = re.compile(
    r"^c=1: \((.*)\) class: certificate y = \{.*\}, alpha = \S+, beta = "
    r"\S+ re-checked exactly: y\.s_e \+ alpha\*lo_e - beta\*hi_e > 0 on "
    r"each of its \d+ distinct expressions, so none of its \d+ count vectors "
    r"vanishes \(Motzkin's transposition theorem\)$")
CMAX_NOTE = ("c_max: echoed only, and nothing is computed for it; cells and "
             "slot types are listed at c=1 only")


# The per-copy sweep audits every copy and words its count lines for that;
# the report audits copy 1 of each slot type.
LATER_COPY_LINE = re.compile(r"^c=1: [^\s\[]*\[([2-9]|\d\d+)\]")


def without_certificates(tables):
    return tuple(t._replace(certificate=None) for t in tables)


def assert_same_answers(report, old):
    """The c = 1 report answers as a per-complexity sweep does: the same
    verdict and certificate; its slot-type tables are the sweep's c = 1
    ones with the types of equal expression merged, and its cells and
    witnesses stand for the same supports and values as the sweep's c = 1
    ones, and equal them in a class whose expressions are distinct.  The
    sweep repeats its c = 1 tables and cells at every later c with the
    prime renamed.  The report's notes replace the sweep's per-complexity
    notes, and its audit is the sweep's c = 1 lines of copy 1, with the
    count lines replaced, and has no line for any later c."""
    for name in ("verdict", "c_max", "mode", "uniform_in_c"):
        assert getattr(report, name) == getattr(old, name), name
    prime_at_one = {t.class_key: t.prime for t in report.slot_types}
    for name in ("cells", "witnesses", "slot_types"):
        theirs = getattr(old, name)
        at_one = [x for x in theirs if x.complexity == 1]
        for c in range(2, old.c_max + 1):
            at_c = [x for x in theirs if x.complexity == c]
            assert [x.prime for x in at_c] == [
                prime_at_one[x.class_key].replace("t", f"t^{c}")
                for x in at_c]
            assert [x._replace(complexity=1, prime=prime_at_one[x.class_key])
                    for x in at_c] == at_one, (name, c)
    tables = [t for t in old.slot_types if t.complexity == 1]
    assert without_certificates(report.slot_types) == \
        tuple(merged(t) for t in tables)
    # a class of distinct expressions has the sweep's cells; any other is
    # compared support by support
    distinct = {t.class_key for t in report.slot_types
                if all(len(types) == 1 for types in t.types)}
    for name in ("cells", "witnesses"):
        mine = getattr(report, name)
        theirs = tuple(x for x in getattr(old, name) if x.complexity == 1)
        assert [x for x in mine if x.class_key in distinct] == \
            [x for x in theirs if x.class_key in distinct], name
        assert expand([x for x in mine if x.class_key not in distinct],
                      report) == \
            expand([x for x in theirs if x.class_key not in distinct],
                   old), name
    # the oracle's largest cell of a class takes every slot, in slot order
    order = {}
    for cell in old.cells:
        if cell.complexity == 1 and len(cell.support) >= len(
                order.get(cell.class_key, ())):
            order[cell.class_key] = {s: i for i, s in enumerate(cell.support)}
    assert_representatives(report, order)
    expected = [NO_SLOT_NOTE] if not report.slot_types else []
    if report.uniform_in_c:
        expected.append(CERTIFICATE_NOTE)
    expected.append(CMAX_NOTE)
    certified = [t for t in report.slot_types if t.certificate]
    if certified:
        expected.append(TRANSPOSITION_NOTE)
    assert report.notes == tuple(expected) + old.notes[-2:]
    counted = iter(report.slot_types)
    at_one = [obstruction._count_line(next(counted)) if COUNT_LINE.match(line)
              else line for line in old.audit if line.startswith("c=1: ")
              and not LATER_COPY_LINE.match(line)]
    assert next(counted, None) is None
    audit = [line for line in report.audit if not CHECKED_LINE.match(line)]
    assert audit == at_one
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
        name = rng.choice(("ra", "rb", "rc"))
        return Companion(name, symbol(name))
    if kind == "trivial":
        return None
    v = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    if kind == "exact":
        return Companion("J", rho_of(v))
    return Companion("I", RhoExpr(
        v, v + Fraction(rng.randint(0, 2), 100)))


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


def merging_family(rng):
    """A 9_46 family of up to four members and five copies whose slot types
    share expressions: companions come from small pools of symbols, exact
    values and intervals of both signs, so that types of different members
    coincide, and a member that carries a on alpha and -a on beta gives
    its K and -tK types one expression in each class."""
    pool = [symbol("ra"), symbol("rb"),
            rho_of(Fraction(1, 3)),
            rho_of(Fraction(-1, 2)),
            RhoExpr(Fraction(1, 5), Fraction(1, 4)),
            RhoExpr(Fraction(-1, 10), Fraction(1, 10))]
    members, left = [], rng.randint(2, 5)
    while left:
        n = rng.randint(1, min(left, 3))
        left -= n
        alpha = rng.choice(pool)
        beta = (-alpha if not alpha.coeffs
                and rng.random() < 0.4 else rng.choice(pool))
        K = InfectedKnot.build(pattern_9_46(), {
            "alpha": Companion("A", alpha), "beta": Companion("B", beta)})
        members.append(FamilyMember(K, n * rng.choice((1, -1))))
    return FamilySpec(tuple(members[:4]),
                      tuple(f"K{i}" for i in range(1, len(members[:4]) + 1)))


@pytest.mark.parametrize("seed", range(4))
def test_merged_sweep_matches_oracle(seed):
    # the sweep over distinct expressions against the per-copy sweep over
    # every type's copies: equal verdicts, the same supports and values
    # once each cell is expanded into its prod C(N_e, K_e) supports, and a
    # vanishing representative support for every witness
    rng = random.Random(7800 + seed)
    seen = {"joined": 0, "spanning": 0, "INCONCLUSIVE": 0, "OBSTRUCTED": 0}
    for _ in range(12):
        spec = merging_family(rng)
        report = verify_obstructed(spec, 1, cells=True)
        oracle = sweep_oracle.verify_obstructed(spec, 1)
        assert report.verdict == oracle.verdict
        assert report.witnesses == \
            verify_obstructed(spec, 1).witnesses == \
            tuple(cell for cell in report.cells if not cell.nonvanishing)
        assert_same_answers(report, oracle)
        # a witness's representative support, evaluated slot by slot from
        # the per-copy sweep's types, vanishes
        value = {(t.class_key, slot): expr for t in oracle.slot_types
                 for slots, expr in zip(t.slots, t.rho) for slot in slots}
        for cell in report.witnesses:
            rho = sum((value[(cell.class_key, slot)] for slot in cell.support),
                      RhoExpr.zero())
            assert rho == cell.rho and not verifiably_nonzero(rho)
        for table in report.slot_types:
            for types in table.types:
                members = [label.split("[", 1)[0] for label, _ in types]
                seen["joined"] += len(members) > len(set(members))
                seen["spanning"] += len(set(members)) > 1
        seen[report.verdict] += 1
    assert min(seen.values()) >= 2, seen


@pytest.mark.parametrize("seed", range(3))
def test_listed_cells_are_the_sums_of_their_counts(seed):
    # the sweep adds integer vectors over one denominator; every listed
    # cell's rho is the RhoExpr sum of its counts of the class's distinct
    # expressions, added in count order, and its flag is that sum's
    rng = random.Random(7900 + seed)
    seen = {"interval": 0, "symbol": 0, "vanishing": 0}
    for _ in range(12):
        spec = merging_family(rng)
        report = verify_obstructed(spec, 1, cells=True)
        exprs = {t.class_key: t.rho for t in report.slot_types}
        for cell in report.cells:
            want = RhoExpr.zero()
            for expr, k in zip(exprs[cell.class_key], cell.counts):
                for _ in range(k):
                    want = want + expr
            assert cell.rho == want
            assert type(cell.rho.const_lo) is type(cell.rho.const_hi) is Fraction
            assert cell.nonvanishing == verifiably_nonzero(want)
            seen["interval"] += want.const_lo != want.const_hi
            seen["symbol"] += bool(want.coeffs)
            seen["vanishing"] += not cell.nonvanishing
    assert min(seen.values()) >= 5, seen


def test_ten_alternating_members_are_decided_on_merged_vectors(tmp_path,
                                                               capsys):
    # ten single-copy members with exact 1/3 and -1/2 companions: four
    # distinct expressions of five copies per class, so 6^4 - 1 count
    # vectors stand for 2^20 - 1 supports, and 3 * 1/3 - 2 * 1/2 = 0
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    value = {i: "1/3" if i % 2 else "-1/2" for i in range(1, 11)}
    doc = {"schema": "rhoslice.knot/1",
           "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                       "curves": curves},
           "knots": {f"K{i}": {"companions": {"alpha": {"rho0": value[i]},
                                              "beta": {"rho0": value[i]}}}
                     for i in value},
           "family": [{"knot": f"K{i}", "multiplicity": 1} for i in value]}
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["obstruct", str(path), "--output", "structured"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INCONCLUSIVE" and report["cells"] == []
    for table in report["slot_types"]:
        assert table["certificate"] is None
        assert [entry["copies"] for entry in table["types"]] == [5] * 4
        assert [len(entry["types"]) for entry in table["types"]] == [5] * 4
    for w in report["witnesses"]:
        assert w["rho"] == {"coefficients": {}, "constant": "0"}
        assert len(w["support"]) == sum(w["counts"])
    # (3 of 1/3 and 2 of -1/2, or 3 of -1/3 and 2 of 1/2, and multiples
    # up to five copies) in each class
    assert {tuple(w["counts"]) for w in report["witnesses"]} >= \
        {(3, 0, 2, 0), (0, 3, 0, 2), (3, 3, 2, 2)}
    assert any("1295 count vectors over the distinct expressions stand for "
               "its 2^20 - 1 supports" in line for line in report["audit"])


def test_sweep_memory_does_not_grow_with_the_count_vectors():
    # seven single-copy members over 1/p: no certificate, so each class is
    # enumerated on its 2^14 - 1 count vectors, none of which vanishes; a
    # table of every vector's value would peak at over 5 MB
    spec = cli.family_spec(cli.parse_document(prime_family(7)))
    obstruction._assemble_full(spec)
    tracemalloc.start()
    try:
        report = verify_obstructed(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.obstructed and not report.witnesses
    assert [t.certificate for t in report.slot_types] == [None, None]
    assert [math.prod(n + 1 for n in t.copies) - 1
            for t in report.slot_types] == [2 ** 14 - 1] * 2
    assert peak < 2_000_000, peak


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
    assert [len(t.types) for t in report.slot_types] == [32, 32]
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


def test_certified_multiplicities_list_one_label_per_type(monkeypatch):
    # a slot type lists its copy-1 label and its copy count, so a certified
    # member of any multiplicity gives a report of constant size
    def unreachable(*args):
        raise AssertionError("a class was enumerated")

    monkeypatch.setattr(obstruction, "_sweep_class", unreachable)
    for n in (2 ** 19, 10 ** 12):
        report = verify_obstructed(family_spec((n,)), 1)
        assert (report.verdict, report.cells, report.witnesses) == \
            ("OBSTRUCTED", (), ())
        assert [t.types for t in report.slot_types] == [
            ((("K1[1].beta", n),), (("K1[1]~.alpha", n),)),
            ((("K1[1].alpha", n),), (("K1[1]~.beta", n),))]
        assert all(t.certificate for t in report.slot_types)
        assert len(json.dumps(report.to_json())) < 10 ** 6
        assert f"c=1: assembled {2 * n} blocks;" in report.audit[0]


def test_support_bound_counts_the_listed_labels():
    report = verify_obstructed(family_spec((1, -2, 3)), 1, cells=True)
    for table in report.slot_types:
        sizes = table.copies
        listed = sum(len(cell.support) for cell in report.cells
                     if cell.class_key == table.class_key)
        assert listed == math.prod(n + 1 for n in sizes) * sum(sizes) // 2


def exact_member_doc(multiplicity):
    """One 9_46 member with exact companions 1/3 and 1/2: per class, two
    slot types of `multiplicity` copies, and 3 * 1/3 - 2 * 1/2 = 0."""
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    return {"schema": "rhoslice.knot/1",
            "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                        "curves": curves},
            "knots": {"K1": {"companions": {"alpha": {"rho0": "1/3"},
                                            "beta": {"rho0": "1/2"}}}},
            "family": [{"knot": "K1", "multiplicity": multiplicity}]}


def test_support_bound_charges_only_the_witnesses_without_cells(tmp_path,
                                                                capsys):
    # multiplicity 101: 102^2 - 1 count vectors per class, whose supports
    # would list 1,050,804 slot labels; without --cells only the 33
    # witnesses of each class are built, 2,805 labels
    path = tmp_path / "m101.json"
    path.write_text(json.dumps(exact_member_doc(101)), encoding="utf-8")
    argv = ["obstruct", str(path), "--output", "structured"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INCONCLUSIVE" and report["cells"] == []
    for table in report["slot_types"]:
        assert table["certificate"] is None
        assert [entry["copies"] for entry in table["types"]] == [101, 101]
        witnesses = [w for w in report["witnesses"]
                     if w["prime"] == table["prime"]]
        assert len(witnesses) == 33
        assert sum(len(w["support"]) for w in witnesses) == 2805
    assert main(argv + ["--cells"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: c=1: the supports of the (t - 2) class list 1050804 slot "
        "labels, more than MAX_SUPPORT_ENTRIES_PER_CLASS = 1048576\n")


def test_support_bound_refuses_many_witnesses(monkeypatch, capsys, tmp_path):
    # the witnesses' labels are counted as they are built, and the run
    # fails before anything is printed; the bound admits its own number
    path = tmp_path / "m101.json"
    path.write_text(json.dumps(exact_member_doc(101)), encoding="utf-8")
    monkeypatch.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 2805)
    assert main(["obstruct", str(path)]) == 2
    assert "verdict: INCONCLUSIVE" in capsys.readouterr().out
    monkeypatch.setattr(obstruction, "MAX_SUPPORT_ENTRIES_PER_CLASS", 2804)
    assert main(["obstruct", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: c=1: the witnesses of the (t - 2) class list more than "
        "MAX_SUPPORT_ENTRIES_PER_CLASS = 2804 slot labels\n")


def test_multiplicity_forty_member_runs():
    # 80 slots per class, once refused by a bound of 20 slots
    report = verify_obstructed(family_spec((40,)), 1, cells=True)
    assert report.verdict == "OBSTRUCTED"
    assert len(report.cells) == 2 * (41 ** 2 - 1)
    assert [t.copies for t in report.slot_types] == [(40, 40)] * 2


def test_numeric_symbol_error_matches_oracle():
    rng = random.Random(7300)
    for _ in range(6):
        spec = random_family(rng, 3, ("symbol", "exact", "interval"))
        if not any(comp.rho.coeffs for m in spec.members
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
        form, classes = hyperbolic_form(prime)
        built = form, SimpleNamespace(curve_classes=classes)
        with monkeypatch.context() as m:
            m.setattr(obstruction, "blanchfield_form",
                      lambda pattern, variable: built)
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
            pattern, {curve: Companion("rA", symbol("rA"))}))
        report = verify_obstructed(spec, 3)
        assert (report.verdict, report.cells, report.uniform_in_c) == \
            ("INCONCLUSIVE", (), False)
        assert report.notes[0] == NO_SLOT_NOTE
        assert_same_answers(report, full_sweep(spec, 3))


def test_slot_facts_run_at_c1_only_under_the_certificate(monkeypatch):
    calls = []
    real = obstruction._slot_expr

    def counted(assembly, prime, slot, x, mode):
        calls.append((prime.span, slot.copy))
        return real(assembly, prime, slot, x, mode)

    monkeypatch.setattr(obstruction, "_slot_expr", counted)
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
    real = obstruction._slot_expr

    def counted(assembly, prime, slot, x, mode):
        calls.append(slot)
        return real(assembly, prime, slot, x, mode)

    spec = family_spec((40,))
    assert len(obstruction._assemble_full(spec).blocks) == 2
    monkeypatch.setattr(obstruction, "_slot_expr", counted)
    report = verify_obstructed(spec, 1, cells=True)
    assert len(calls) == 4 and {slot.copy for slot in calls} == {1}
    monkeypatch.undo()
    old = full_sweep(spec, 1)
    assert (report.cells, without_certificates(report.slot_types)) == \
        (old.cells, tuple(map(merged, old.slot_types)))
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
        "alpha": Companion("rA", symbol("rA")),
        "beta": Companion("rB", symbol("rB"))}))
    start = time.perf_counter()
    for c_max in (1, 12):
        report = verify_obstructed(spec, c_max)
        assert report.obstructed and report.uniform_in_c
    assert time.perf_counter() - start < 5.0
