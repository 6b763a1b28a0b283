"""The metabelian obstruction engine for satellite knots.

A `FamilySpec` describes L = #_i n_i (K_i # -tK_i), where each K_i is a
genus-one pattern with companion knots tied through its infection curves
and -tK denotes the reversed mirror.  For a complexity c >= 1 the engine
assembles the homology module and linking form of L over Q[t^{±1}] with t
acting as the c-th power of the covering translation, enumerates every way
a hypothetical half-dimensional self-annihilating submodule could project
into one isotypic class ("admissible patterns"), and evaluates the
resulting real-valued invariant as a formal expression in the companions'
signature integrals.

The analytic ingredients enter as axioms with machine-checked hypotheses:

* vanishing over a slice-disk exterior: applied to a pattern only after
  verifying a genus-one metabolizer exists and the flagged curve pairs to
  zero with itself;
* invariance under composition with injective coefficient maps: applied
  after checking the flagged coordinate is not divisible by the isotypic
  prime (`subgroup_property_check`);
* additivity over connected sums and satellite pieces: reflected in the
  per-copy block evaluation; distinct copies are orthogonal on the
  assembled form by construction, as it is the block sum of the copies'
  forms.

Every axiom application is recorded in the report's audit trail.  If all
patterns at all complexities up to the sweep bound give a provably nonzero
expression, the family is OBSTRUCTED: no member combination bounds a disk
in a rational homology ball of complexity within the bound.  A single
unverifiable expression makes the verdict INCONCLUSIVE, never a false
positive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .almodule import (
    AlexanderModule,
    ModuleElement,
    ModuleError,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
)
from .blanchfield import LinkingForm, basechange_form, blanchfield_form, direct_sum_forms
from .polyalg import LaurentPoly, divides, is_irreducible
from .seifert import PatternKnot, SeifertMatrix, metabolizer_search
from .signatures import Rho0Value, rho0 as rho0_of_seifert

MAX_SLOTS_PER_CLASS = 20


class ObstructionError(ValueError):
    """A machine-checked hypothesis of an axiom failed, or the input is
    outside the engine's scope."""


# ---------------------------------------------------------------------------
# Companions, infected knots, families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Companion:
    """A companion knot, known only through its signature integral."""

    name: str
    rho: Rho0Value

    @classmethod
    def symbol(cls, name: str) -> "Companion":
        return cls(name, Rho0Value.of_symbol(name))

    @classmethod
    def exact(cls, name: str, value) -> "Companion":
        return cls(name, Rho0Value.of_exact(value))

    @classmethod
    def interval(cls, name: str, lo, hi) -> "Companion":
        return cls(name, Rho0Value.of_interval(lo, hi))

    @classmethod
    def from_seifert(cls, name: str, V: SeifertMatrix) -> "Companion":
        return cls(name, rho0_of_seifert(V))

    @classmethod
    def trivial(cls) -> "Companion":
        return cls("unknot", Rho0Value.of_exact(0))

    def is_trivial(self) -> bool:
        return self.rho.kind == "exact" and self.rho.exact == 0


@dataclass(frozen=True)
class InfectedKnot:
    """A satellite of a genus-one pattern: companions tied through the
    pattern's infection curves.  Unfilled slots mean the trivial companion."""

    pattern: PatternKnot
    infections: tuple[tuple[str, Companion], ...]

    @classmethod
    def build(cls, pattern: PatternKnot, infections: dict) -> "InfectedKnot":
        known = set(pattern.curve_names())
        for cname in infections:
            if cname not in known:
                raise ObstructionError(f"no curve named {cname!r} in pattern")
        packed = tuple(
            (cname, infections.get(cname, Companion.trivial()))
            for cname in pattern.curve_names())
        return cls(pattern, packed)

    def companion(self, cname: str) -> Companion:
        for n, c in self.infections:
            if n == cname:
                return c
        raise ObstructionError(f"no curve named {cname!r}")


@dataclass(frozen=True)
class FamilyMember:
    knot: InfectedKnot
    multiplicity: int
    # include the reversed-mirror summand (the default assembles
    # K # -tK per member; bare knots are for degenerate diagnostics)
    with_reverse: bool = True

    def __post_init__(self):
        if self.multiplicity == 0:
            raise ObstructionError("multiplicities must be nonzero")


@dataclass(frozen=True)
class FamilySpec:
    """The connected sum #_i n_i (K_i # -tK_i)."""

    members: tuple[FamilyMember, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.members:
            raise ObstructionError("family must have at least one member")
        if self.names and len(self.names) != len(self.members):
            raise ObstructionError("one name per member")

    def member_name(self, i: int) -> str:
        return self.names[i] if self.names else f"K{i + 1}"

    @classmethod
    def single(cls, knot: InfectedKnot, name: str = "K") -> "FamilySpec":
        return cls((FamilyMember(knot, 1),), (name,))


# ---------------------------------------------------------------------------
# Formal rho expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoExpr:
    """Formal rational combination of companion symbols plus a numeric part
    carried as an exact interval [const_lo, const_hi] (equal when exact)."""

    const_lo: Fraction = Fraction(0)
    const_hi: Fraction = Fraction(0)
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def zero(cls) -> "RhoExpr":
        return cls()

    @classmethod
    def of(cls, const=0, **symbols) -> "RhoExpr":
        c = Fraction(const)
        packed = tuple(sorted((k, Fraction(v)) for k, v in symbols.items()
                              if Fraction(v) != 0))
        return cls(c, c, packed)

    def __add__(self, other: "RhoExpr") -> "RhoExpr":
        """The sum: symbol coefficients and interval ends add, and
        coefficients that cancel to zero are dropped."""
        if not isinstance(other, RhoExpr):
            return NotImplemented
        d = dict(self.coeffs)
        for name, v in other.coeffs:
            d[name] = d.get(name, Fraction(0)) + v
        packed = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return RhoExpr(self.const_lo + other.const_lo,
                       self.const_hi + other.const_hi, packed)

    def add_symbol(self, name: str, coeff: Fraction) -> "RhoExpr":
        return self + RhoExpr(coeffs=((name, coeff),))

    def add_value(self, rho: Rho0Value, sign: int) -> "RhoExpr":
        if rho.kind == "symbol":
            return self.add_symbol(rho.symbol, Fraction(sign))
        if rho.kind == "exact":
            v = sign * rho.exact
            return RhoExpr(self.const_lo + v, self.const_hi + v, self.coeffs)
        lo, hi = rho.interval
        if sign < 0:
            lo, hi = -hi, -lo
        return RhoExpr(self.const_lo + lo, self.const_hi + hi, self.coeffs)

    def coefficient(self, name: str) -> Fraction:
        return dict(self.coeffs).get(name, Fraction(0))

    def is_exactly_zero(self) -> bool:
        return (not self.coeffs and self.const_lo == 0 and self.const_hi == 0)

    def is_verifiably_nonzero(self) -> bool:
        """Nonzero under the hypothesis that the symbols together with 1 are
        linearly independent over Q, or by exact/interval arithmetic."""
        if any(v != 0 for _, v in self.coeffs):
            return True
        return self.const_lo > 0 or self.const_hi < 0

    def __str__(self):
        parts = []
        for name, v in self.coeffs:
            if v == 1:
                parts.append(f"+ {name}" if parts else name)
            elif v == -1:
                parts.append(f"- {name}" if parts else f"-{name}")
            else:
                prefix = "+ " if (parts and v > 0) else ("- " if parts else "")
                mag = abs(v) if parts else v
                parts.append(f"{prefix}{mag}*{name}")
        if self.const_lo == self.const_hi:
            if self.const_lo != 0 or not parts:
                c = self.const_lo
                parts.append(f"+ {c}" if (parts and c >= 0)
                             else (f"- {-c}" if parts else str(c)))
        else:
            parts.append(f"+ [{self.const_lo}, {self.const_hi}]")
        return " ".join(parts)

    def to_json(self):
        out = {"coefficients": {k: str(v) for k, v in self.coeffs}}
        if self.const_lo == self.const_hi:
            out["constant"] = str(self.const_lo)
        else:
            out["constant_interval"] = [str(self.const_lo), str(self.const_hi)]
        return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One potential support position: a curve of one copy of one member."""

    member: int          # index into spec.members
    copy: int            # 1..|n_i|
    reversed_part: bool  # False: the K_i block; True: the -tK_i block
    curve: str

    def label(self, spec: FamilySpec) -> str:
        tag = "~" if self.reversed_part else ""
        return f"{spec.member_name(self.member)}[{self.copy}]{tag}.{self.curve}"


@dataclass
class _CopyBlock:
    """Everything the evaluator needs about one copy (K or -tK block)."""

    slot_prefix: tuple[int, int, bool]   # (member, copy, reversed_part)
    pattern: PatternKnot
    form: LinkingForm                    # complexity-c block form
    curve_class: dict[str, ModuleElement]   # curve -> class at complexity c
    companion_of: dict[str, Companion]
    sign: int                            # multiplicity sign * mirror sign
    mirrored_companions: bool            # companions are reversed mirrors


@dataclass
class Assembly:
    spec: FamilySpec
    complexity: int
    module: AlexanderModule
    form: LinkingForm
    blocks: list[_CopyBlock]
    slot_of_block: dict[tuple[int, int, bool], _CopyBlock]


@lru_cache(maxsize=32)
def _pattern_form(pattern: PatternKnot):
    return blanchfield_form(pattern)


@lru_cache(maxsize=256)
def _block_form_at_c(pattern: PatternKnot, c: int):
    """(form_c, curve classes at complexity c) for one pattern block."""
    form_s, dec = _pattern_form(pattern)
    form_c, transport = basechange_form(form_s, c)
    classes = {
        cname: transport.transport(dec.project(vec))
        for cname, vec in pattern.curves
    }
    return form_c, classes


def assemble(spec: FamilySpec, c: int) -> tuple[AlexanderModule, LinkingForm]:
    """Module and linking form of the assembled family at complexity c."""
    assembly = _assemble_full(spec, c)
    return assembly.module, assembly.form


@lru_cache(maxsize=64)
def _assemble_full(spec: FamilySpec, c: int) -> Assembly:
    blocks: list[_CopyBlock] = []
    for mi, member in enumerate(spec.members):
        base = member.knot.pattern
        delta_i = 1 if member.multiplicity > 0 else -1
        for copy in range(1, abs(member.multiplicity) + 1):
            parts = [(False, base)]
            if member.with_reverse:
                parts.append((True, base.transform("inverse")))
            for reversed_part, pat in parts:
                form_c, classes = _block_form_at_c(pat, c)
                # mirror the block form for negative multiplicity (the honest
                # orientation; zero/nonzero structure is unaffected)
                use_form = form_c if delta_i > 0 else form_c.negate()
                companions = {
                    cname: member.knot.companion(cname)
                    for cname in base.curve_names()
                }
                blocks.append(_CopyBlock(
                    slot_prefix=(mi, copy, reversed_part),
                    pattern=pat,
                    form=use_form,
                    curve_class=classes,
                    companion_of=companions,
                    sign=delta_i,
                    mirrored_companions=reversed_part,
                ))

    def relabel(i, label):
        mi, copy, rev = blocks[i].slot_prefix
        tag = "~" if rev else ""
        return f"{spec.member_name(mi)}[{copy}]{tag}.{label}"

    module = direct_sum([b.form.module for b in blocks], relabel=relabel)
    form = direct_sum_forms([b.form for b in blocks], relabel=relabel)
    return Assembly(spec, c, module, form, blocks,
                    {b.slot_prefix: b for b in blocks})


# ---------------------------------------------------------------------------
# Admissible patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissiblePattern:
    """A nonempty support inside one isotypic class: the positions where a
    hypothetical self-annihilating element survives isotypic reduction."""

    prime: LaurentPoly              # irreducible at the given complexity
    class_key: str                  # complexity-independent class id
    support: tuple[Slot, ...]
    signs: tuple[int, ...]          # per-slot multiplicity signs

    def label(self, spec: FamilySpec) -> str:
        return "{" + ", ".join(s.label(spec) for s in self.support) + "}"


def _isotypic_primes(assembly: Assembly) -> list[tuple[LaurentPoly, str]]:
    """The isotypic prime classes of the assembled module, with a
    complexity-independent key (the base-variable prime it came from)."""
    classes = isotypic_decompose(assembly.module)
    keyed = []
    for prime in classes:
        # find a complexity-1 ancestor prime for a stable key
        key = None
        for block in assembly.blocks:
            base_form, _ = _pattern_form(block.pattern)
            for s in base_form.module.summands:
                lifted = s.base.subs_power(assembly.complexity, prime.variable)
                if divides(prime, lifted):
                    key = str(s.base)
                    break
            if key:
                break
        keyed.append((prime, key or str(prime)))
    return keyed


def _slots_for_prime(assembly: Assembly, prime: LaurentPoly) -> list[Slot]:
    out = []
    for block in assembly.blocks:
        mi, copy, rev = block.slot_prefix
        for cname in block.pattern.curve_names():
            x = block.curve_class[cname]
            try:
                red = reduce_to_isotypic(x, prime)
            except ModuleError:
                continue  # this block has no component in the class
            if not red.is_zero():
                out.append(Slot(mi, copy, rev, cname))
    return out


def admissible_patterns(spec: FamilySpec, c: int) -> list[AdmissiblePattern]:
    """All (isotypic prime, nonempty support) pairs at complexity c.

    No symmetry reduction: reorderings and orientation changes are replaced
    by exhaustive enumeration over supports.
    """
    assembly = _assemble_full(spec, c)
    patterns: list[AdmissiblePattern] = []
    for prime, key in _isotypic_primes(assembly):
        slots = _slots_for_prime(assembly, prime)
        if len(slots) > MAX_SLOTS_PER_CLASS:
            raise ObstructionError(
                f"{len(slots)} slots in one isotypic class exceeds the "
                f"enumeration bound {MAX_SLOTS_PER_CLASS}")
        for size in range(1, len(slots) + 1):
            for chosen in itertools.combinations(slots, size):
                signs = tuple(
                    assembly.slot_of_block[(s.member, s.copy, s.reversed_part)].sign
                    for s in chosen)
                patterns.append(AdmissiblePattern(prime, key, chosen, signs))
    return patterns


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def subgroup_property_check(f: LaurentPoly, p: LaurentPoly) -> bool:
    """True iff multiplication by f is injective on the p-torsion line,
    i.e. f is not divisible by the irreducible p.  This is the hypothesis
    under which composing with the induced coefficient map preserves the
    invariant."""
    if not is_irreducible(p):
        raise ObstructionError(f"({p}) is not irreducible")
    return not divides(p, f)


def _slot_contributions(assembly: Assembly, prime: LaurentPoly,
                        slot: Slot) -> tuple[list[tuple[Companion, int]], list[str]]:
    """Companion contributions and audit lines for one flagged slot.

    The flagged slot's curve carries the representation; every curve of the
    same copy whose pairing with the reduced slot element is nonzero feeds
    its companion's signature integral into the expression (satellite
    additivity), while the slot curve itself must pair to zero so that the
    vanishing axiom applies to the infected pattern.
    """
    block = assembly.slot_of_block[(slot.member, slot.copy, slot.reversed_part)]
    spec = assembly.spec
    label = slot.label(spec)
    audit: list[str] = []

    x = reduce_to_isotypic(block.curve_class[slot.curve], prime)
    if x.is_zero():
        raise ObstructionError(
            f"slot {label}: curve class vanishes in the {prime} class")

    # hypothesis 1: the pattern admits a genus-one metabolizer
    metab = metabolizer_search(block.pattern.seifert)
    if metab is None:
        raise ObstructionError(
            f"slot {label}: pattern {block.pattern.name!r} has no genus-one "
            "metabolizer; the slice-extension vanishing axiom does not apply")
    audit.append(f"{label}: metabolizer {metab} certifies the pattern "
                 "algebraically slice")

    # hypothesis 2: the flagged curve pairs to zero with itself
    self_pair = block.form.pairing(x, block.curve_class[slot.curve])
    if not self_pair.is_zero():
        raise ObstructionError(
            f"slot {label}: Bl({slot.curve},{slot.curve}) != 0; the induced "
            "representation does not extend over the slice-disk exterior")
    audit.append(f"{label}: Bl({slot.curve},{slot.curve}) = 0; pattern term "
                 "vanishes by the slice-extension axiom")

    # hypothesis 3: unit coordinates are injective against the prime
    if not subgroup_property_check(LaurentPoly.one(prime.variable), prime):
        raise ObstructionError("unit coordinate failed the injectivity check")
    audit.append(f"{label}: coordinate 1 is a unit mod ({prime}); invariant "
                 "unchanged under the induced coefficient map")

    contributions: list[tuple[Companion, int]] = []
    mirror_sign = -1 if block.mirrored_companions else 1
    for cname in block.pattern.curve_names():
        if cname == slot.curve:
            continue
        if block.form.pairing(x, block.curve_class[cname]).is_zero():
            audit.append(f"{label}: representation trivial on {cname}; "
                         "companion contributes 0")
            continue
        comp = block.companion_of[cname]
        audit.append(
            f"{label}: Bl pairing with {cname} nonzero; companion "
            f"{comp.name!r} contributes with sign {block.sign * mirror_sign:+d}"
            + (" (reversed mirror)" if block.mirrored_companions else ""))
        contributions.append((comp, block.sign * mirror_sign))
    return contributions, audit


def _slot_expr(assembly: Assembly, prime: LaurentPoly, slot: Slot,
               mode: str) -> tuple[RhoExpr, list[str]]:
    """The summand a flagged slot adds to every pattern containing it, with
    the slot's audit lines."""
    contributions, audit = _slot_contributions(assembly, prime, slot)
    expr = RhoExpr.zero()
    for comp, sign in contributions:
        expr = _accumulate(expr, comp, sign, mode)
    return expr, audit


def evaluate_rho(spec: FamilySpec, pattern: AdmissiblePattern,
                 c: int, mode: str = "symbolic") -> RhoExpr:
    """The invariant of the assembled knot for the representation induced by
    a unit-coordinate element supported on the pattern, as a RhoExpr: the
    sum of its slots' expressions."""
    assembly = _assemble_full(spec, c)
    return sum((_slot_expr(assembly, pattern.prime, slot, mode)[0]
                for slot in pattern.support), RhoExpr.zero())


def _accumulate(expr: RhoExpr, comp: Companion, sign: int, mode: str) -> RhoExpr:
    if mode == "numeric" and comp.rho.kind == "symbol":
        raise ObstructionError(
            f"companion {comp.name!r} has no numeric value; "
            "numeric mode requires exact or interval data")
    return expr.add_value(comp.rho, sign)


# ---------------------------------------------------------------------------
# The verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportCell:
    complexity: int
    class_key: str
    prime: str
    support: tuple[str, ...]
    rho: RhoExpr
    nonvanishing: bool

    def to_json(self):
        return {
            "c": self.complexity,
            "class": self.class_key,
            "prime": self.prime,
            "support": list(self.support),
            "rho": self.rho.to_json(),
            "nonvanishing": self.nonvanishing,
        }


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str                 # "OBSTRUCTED" | "INCONCLUSIVE"
    c_max: int
    mode: str
    cells: tuple[ReportCell, ...]
    witnesses: tuple[ReportCell, ...]
    audit: tuple[str, ...]
    uniform_in_c: bool
    notes: tuple[str, ...] = ()

    @property
    def obstructed(self) -> bool:
        return self.verdict == "OBSTRUCTED"

    def to_json(self):
        return {
            "schema": "rhoslice.report/1",
            "verdict": self.verdict,
            "c_max": self.c_max,
            "mode": self.mode,
            "uniform_in_c": self.uniform_in_c,
            "cells": [c.to_json() for c in self.cells],
            "witnesses": [c.to_json() for c in self.witnesses],
            "audit": list(self.audit),
            "notes": list(self.notes),
        }


def verify_obstructed(spec: FamilySpec, c_max: int,
                      mode: str = "symbolic") -> ObstructionReport:
    """Sweep all complexities 1..c_max and all admissible patterns.

    OBSTRUCTED iff every pattern's expression is verifiably nonzero; any
    unverifiable cell (exact zero, or an interval through zero) yields
    INCONCLUSIVE with witnesses.  The enumeration discharges the
    self-annihilating-submodule quantifier: a nonzero element of such a
    submodule reduces, by multiplying with the complementary primes, to a
    unit-coordinate element supported on one of the enumerated patterns,
    and a self-annihilating submodule is nonzero because the form is
    nonsingular (validated at assembly).
    """
    if c_max < 1:
        raise ObstructionError("c_max must be at least 1")
    if mode not in ("symbolic", "numeric"):
        raise ObstructionError(f"unknown mode {mode!r}")
    cells: list[ReportCell] = []
    witnesses: list[ReportCell] = []
    audit: list[str] = []
    notes: list[str] = []
    seen_audit = set()
    by_pattern: dict[tuple[str, tuple[str, ...]], list[RhoExpr]] = {}
    class_keys_by_c: dict[int, tuple[str, ...]] = {}

    for c in range(1, c_max + 1):
        assembly = _assemble_full(spec, c)
        audit_line = (f"c={c}: assembled {len(assembly.blocks)} blocks; form "
                      "validated hermitian, annihilating and nonsingular "
                      "blockwise; distinct copies pair to zero (block form)")
        if audit_line not in seen_audit:
            seen_audit.add(audit_line)
            audit.append(audit_line)
        patterns = admissible_patterns(spec, c)
        class_keys_by_c[c] = tuple(sorted({p.class_key for p in patterns}))
        if not patterns:
            notes.append(f"c={c}: no admissible patterns (trivial module)")
        # A cell's expression is its support prefix's plus its last slot's.
        # admissible_patterns lists each class's supports in
        # itertools.combinations order, so every prefix comes before the
        # supports that extend it.
        slot_exprs: dict[tuple[LaurentPoly, Slot], tuple[RhoExpr, str]] = {}
        prefix_sums: dict[tuple[LaurentPoly, tuple[Slot, ...]],
                          tuple[RhoExpr, tuple[str, ...]]] = {}
        prime_names: dict[LaurentPoly, str] = {}
        for pat in patterns:
            prime, support = pat.prime, pat.support
            last = support[-1]
            if (prime, last) not in slot_exprs:
                if prime not in prime_names:
                    prime_names[prime] = str(prime)
                    prefix_sums[(prime, ())] = (RhoExpr.zero(), ())
                slot_expr, slot_audit = _slot_expr(assembly, prime, last, mode)
                for line in slot_audit:
                    tagged = f"c={c}: {line}"
                    if tagged not in seen_audit:
                        seen_audit.add(tagged)
                        audit.append(tagged)
                slot_exprs[(prime, last)] = (slot_expr, last.label(spec))
            slot_expr, label = slot_exprs[(prime, last)]
            prefix_expr, prefix_labels = prefix_sums[(prime, support[:-1])]
            expr, labels = prefix_expr + slot_expr, prefix_labels + (label,)
            prefix_sums[(prime, support)] = (expr, labels)
            ok = expr.is_verifiably_nonzero()
            cell = ReportCell(c, pat.class_key, prime_names[prime], labels,
                              expr, ok)
            cells.append(cell)
            if not ok:
                witnesses.append(cell)
            by_pattern.setdefault((pat.class_key, cell.support), []).append(expr)

    any_cells = bool(cells)
    verdict = "OBSTRUCTED" if any_cells and not witnesses else "INCONCLUSIVE"
    if not any_cells:
        notes.append("no admissible patterns at any swept complexity; "
                     "nothing to obstruct")

    # uniform-in-c certificate: every (class, support) group appears at every
    # complexity with literally the same expression
    uniform = any_cells and all(
        keys == class_keys_by_c[1] for keys in class_keys_by_c.values())
    if uniform:
        for (key, support), exprs in by_pattern.items():
            if len(exprs) != c_max or any(e != exprs[0] for e in exprs):
                uniform = False
                break
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
