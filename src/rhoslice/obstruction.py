"""The metabelian obstruction engine for satellite knots.

A `FamilySpec` describes L = #_i n_i (K_i # -tK_i), where each K_i is a
genus-one pattern with companion knots tied through its infection curves
and -tK denotes the reversed mirror.  The engine assembles the homology
module and linking form of L over Q[t^{±1}] at complexity 1, where t is
the covering translation (at complexity c, t acts as its c-th power).  In
each isotypic class it lists the slots (a curve of one copy of one member)
where a hypothetical half-dimensional self-annihilating submodule could
survive isotypic reduction, and evaluates the resulting real-valued
invariant as a formal expression in the companions' signature integrals.

The |n_i| copies of one member are identical, so the slots of a class
fall into slot types (member, K or -tK block, curve) of n_t = |n_i| copies
each, and every copy of a type adds the same expression e_t; the sweep
checks this on every run.  A support of k_t copies of each type then has
the value sum_t k_t * e_t, which depends only on its count vector k.  The
sweep evaluates one cell per count vector 0 <= k_t <= n_t (not all zero),
prod(n_t + 1) - 1 of them, in place of the 2^(sum n_t) - 1 supports.

The analytic ingredients enter as axioms with machine-checked hypotheses:

* vanishing over a slice-disk exterior: applied to a pattern only after
  verifying a genus-one metabolizer exists and the flagged curve pairs to
  zero with itself;
* invariance under composition with injective coefficient maps: applied
  after finding a coordinate of the reduced slot element, on a summand of
  the isotypic class, that the isotypic prime does not divide;
* additivity over connected sums and satellite pieces: reflected in the
  per-copy block evaluation; distinct copies are orthogonal on the
  assembled form by construction, as it is the block sum of the copies'
  forms.

Every axiom application is recorded in the report's audit trail.  If every
count vector gives a provably nonzero expression, the family is
OBSTRUCTED: no member combination bounds a disk in a rational homology
ball.  A single unverifiable expression makes the verdict INCONCLUSIVE,
never a false positive.

The complexity-free certificate carries the verdict to every complexity.
When every isotypic prime of the complexity-1 module is linear, t - r, and
r is neither a p-th power in Q for any prime p nor in -4Q^4, Capelli's
theorem makes each p(t^c) irreducible, so no summand splits under
t -> t^c.  Every Gram entry at complexity c is then the c=1 entry with t^c
substituted, zero exactly when it is, and every slot fact and cell at
complexity c is the c=1 one with its prime renamed.  Base change keeps the
form nonsingular, as Q[t] is free over Q[t^c] on 1, t, ..., t^(c-1) and
Q(t)/Q[t^{±1}] splits the same way.  So the cells are evaluated and listed
at c = 1 only.  `c_max` is the depth of a self-check: for c = 2..c_max each
distinct block form is rebuilt by substituting t^c and validated.

Every genus-one pattern with a metabolizer passes the certificate: its
Alexander polynomial is (at - b)(bt - a) with |a - b| = 1, and b/a, a
ratio of consecutive nonzero integers, is positive, not 1 and no k-th
power.  A pattern without one fails the metabolizer hypothesis at its
first slot.  The certificate is refused for a trivial module, for r = ±1,
for any r that is a p-th power or in -4Q^4 (4t - 1 splits at c = 2), and
for every nonlinear prime; a refused module with a slot raises
`ObstructionError`, and one with no slot has nothing to obstruct.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .almodule import (
    AlexanderModule,
    ModuleElement,
    ModuleError,
    Summand,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
)
from .blanchfield import LinkingForm, blanchfield_form, direct_sum_forms
from .polyalg import LaurentPoly, capelli_certified, divides
from .seifert import PatternKnot, SeifertMatrix, metabolizer_search
from .signatures import Rho0Value, rho0 as rho0_of_seifert

# Count vectors the sweep evaluates in one isotypic class: as many as the
# supports of 20 slots.
MAX_CELLS_PER_CLASS = 2 ** 20 - 1


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
    form: LinkingForm                    # block form, negated if sign < 0
    curve_class: dict[str, ModuleElement]   # curve -> class
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
def _block_form(pattern: PatternKnot):
    """(form, curve classes) of one pattern block at complexity 1 in the
    variable t; `blanchfield_form` builds and validates it in s."""
    form_s, dec = blanchfield_form(pattern)
    form = form_s.subs_power(1, "t")
    classes = {
        cname: ModuleElement(form.module, tuple(
            x.rename("t") for x in dec.project(vec).coords))
        for cname, vec in pattern.curves
    }
    return form, classes


def assemble(spec: FamilySpec, c: int) -> tuple[AlexanderModule, LinkingForm]:
    """Module and linking form of the assembled family at complexity c: the
    complexity-1 block sum with t^c substituted, no summand split."""
    form = _assemble_full(spec).form.subs_power(c)
    return form.module, form


@lru_cache(maxsize=64)
def _assemble_full(spec: FamilySpec) -> Assembly:
    blocks: list[_CopyBlock] = []
    for mi, member in enumerate(spec.members):
        base = member.knot.pattern
        delta_i = 1 if member.multiplicity > 0 else -1
        for copy in range(1, abs(member.multiplicity) + 1):
            parts = [(False, base)]
            if member.with_reverse:
                parts.append((True, base.transform("inverse")))
            for reversed_part, pat in parts:
                form, classes = _block_form(pat)
                # mirror the block form for negative multiplicity (the honest
                # orientation; zero/nonzero structure is unaffected)
                use_form = form if delta_i > 0 else form.negate()
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
    return Assembly(spec, 1, module, form, blocks,
                    {b.slot_prefix: b for b in blocks})


# ---------------------------------------------------------------------------
# Slots and slot types
# ---------------------------------------------------------------------------


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


def _slot_types(slots: list[Slot]) -> list[list[int]]:
    """Indices into `slots` grouped by slot type (member, block, curve), in
    order of first appearance; each group lists its copies in slot order."""
    types: dict[tuple[int, bool, str], list[int]] = {}
    for i, s in enumerate(slots):
        types.setdefault((s.member, s.reversed_part, s.curve), []).append(i)
    return list(types.values())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _unit_coordinate(x: ModuleElement, prime: LaurentPoly,
                     label: str) -> tuple[LaurentPoly, Summand]:
    """A coordinate of x on a prime-isotypic summand that the irreducible
    prime does not divide, with its summand.  Multiplication by the
    induced coefficient map is then injective on the line x spans, the
    hypothesis under which composing with it preserves the invariant."""
    prime = prime.monic()
    for coord, summand in zip(x.coords, x.module.summands):
        if summand.base.monic() == prime and not divides(prime, coord):
            return coord, summand
    raise ObstructionError(
        f"slot {label}: every coordinate of {x} on a ({prime})-isotypic "
        f"summand is divisible by ({prime}); the induced coefficient map "
        "need not be injective")


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

    # hypothesis 3: x has a coordinate the prime does not divide
    coord, summand = _unit_coordinate(x, prime, label)
    simple = (" (multiplicity-1 summand: the check is x != 0 there)"
              if summand.mult == 1 else "")
    audit.append(f"{label}: coordinate {coord} of x on summand "
                 f"Q[{prime.variable}]/({summand.annihilator}) is not "
                 f"divisible by ({prime}){simple}; invariant unchanged under "
                 "the induced coefficient map")

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
    """The summand a flagged slot adds to every cell containing it, with
    the slot's audit lines."""
    contributions, audit = _slot_contributions(assembly, prime, slot)
    expr = RhoExpr.zero()
    for comp, sign in contributions:
        expr = _accumulate(expr, comp, sign, mode)
    return expr, audit


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
    """One count vector of one isotypic class at one complexity.  `counts`
    is indexed like the class's slot types; `support` is the representative
    support, copies 1..k_t of each type in slot order."""

    complexity: int
    class_key: str
    prime: str
    counts: tuple[int, ...]
    support: tuple[str, ...]
    rho: RhoExpr
    nonvanishing: bool

    def to_json(self):
        return {
            "c": self.complexity,
            "class": self.class_key,
            "prime": self.prime,
            "counts": list(self.counts),
            "support": list(self.support),
            "rho": self.rho.to_json(),
            "nonvanishing": self.nonvanishing,
        }


@dataclass(frozen=True)
class SlotTypeTable:
    """The slot types of one isotypic class at one complexity: each type's
    slot labels (copy 1 first) and the expression each of its copies adds."""

    complexity: int
    class_key: str
    prime: str
    slots: tuple[tuple[str, ...], ...]
    rho: tuple[RhoExpr, ...]

    def to_json(self):
        return {
            "c": self.complexity,
            "class": self.class_key,
            "prime": self.prime,
            "types": [{"slots": list(labels), "rho": expr.to_json()}
                      for labels, expr in zip(self.slots, self.rho)],
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
    slot_types: tuple[SlotTypeTable, ...] = ()

    @property
    def obstructed(self) -> bool:
        return self.verdict == "OBSTRUCTED"

    def to_json(self):
        return {
            "schema": "rhoslice.report/3",
            "verdict": self.verdict,
            "c_max": self.c_max,
            "mode": self.mode,
            "uniform_in_c": self.uniform_in_c,
            "cells": [c.to_json() for c in self.cells],
            "witnesses": [c.to_json() for c in self.witnesses],
            "slot_types": [t.to_json() for t in self.slot_types],
            "audit": list(self.audit),
            "notes": list(self.notes),
        }


def _sweep_class(assembly: Assembly, prime: LaurentPoly, key: str,
                 slots: list[Slot], types: list[list[int]], mode: str,
                 audit: dict[str, None]
                 ) -> tuple[SlotTypeTable, list[ReportCell]]:
    """The slot-type table and the cells of one isotypic class.

    Every slot's facts are computed and audited; the copies of a type must
    give equal expressions.  Cells come sorted by (support size, slot
    indices of the representative support), which for one copy per type is
    the order of the supports themselves.
    """
    c, spec = assembly.complexity, assembly.spec
    prime_name = str(prime)
    labels = [s.label(spec) for s in slots]
    exprs = []
    for slot in slots:
        expr, lines = _slot_expr(assembly, prime, slot, mode)
        for line in lines:
            audit.setdefault(f"c={c}: {line}")
        exprs.append(expr)
    for t in types:
        for i in t[1:]:
            if exprs[i] != exprs[t[0]]:
                raise ObstructionError(
                    f"c={c}: copies {labels[t[0]]} and {labels[i]} of one "
                    f"slot type give different expressions ({exprs[t[0]]} "
                    f"and {exprs[i]})")
    type_exprs = [exprs[t[0]] for t in types]
    counted = itertools.product(*(range(len(t) + 1) for t in types))
    zero = next(counted)

    # In product order a count vector comes after the vector with its last
    # nonzero count lowered by one, whose value it extends by one merge.
    value = {zero: RhoExpr.zero()}
    rows = []
    for counts in counted:
        last = max(j for j, k in enumerate(counts) if k)
        lower = counts[:last] + (counts[last] - 1,) + counts[last + 1:]
        value[counts] = value[lower] + type_exprs[last]
        support = sorted(i for t, k in zip(types, counts) for i in t[:k])
        rows.append((len(support), support, counts))
    rows.sort()
    cells = []
    for _, support, counts in rows:
        expr = value[counts]
        cells.append(ReportCell(c, key, prime_name, counts,
                                tuple(labels[i] for i in support), expr,
                                expr.is_verifiably_nonzero()))
    table = SlotTypeTable(c, key, prime_name,
                          tuple(tuple(labels[i] for i in t) for t in types),
                          tuple(type_exprs))
    audit.setdefault(_count_line(table))
    return table, cells


def _count_line(table: SlotTypeTable) -> str:
    sizes = [len(labels) for labels in table.slots]
    return (f"c={table.complexity}: ({table.prime}) class: {sum(sizes)} slots "
            f"in {len(sizes)} slot types, and the copies of each type give "
            f"equal expressions; {math.prod(n + 1 for n in sizes) - 1} count "
            f"vectors stand for its 2^{sum(sizes)} - 1 supports")


def _sweep(assembly: Assembly, mode: str, audit: dict[str, None]
           ) -> list[tuple[SlotTypeTable, list[ReportCell]]]:
    """(slot-type table, cells) of every isotypic class with slots, in class
    order, each class keyed by its prime in the knot's variable s.  The cell
    bound is checked for every class before any slot is evaluated."""
    classes = []
    for prime in isotypic_decompose(assembly.module):
        slots = _slots_for_prime(assembly, prime)
        types = _slot_types(slots)
        n_cells = math.prod(len(t) + 1 for t in types) - 1
        if n_cells > MAX_CELLS_PER_CLASS:
            raise ObstructionError(
                f"c={assembly.complexity}: {n_cells} count vectors in the "
                f"({prime}) class exceed the enumeration bound "
                f"{MAX_CELLS_PER_CLASS}")
        if slots:
            classes.append((prime, slots, types))
    return [_sweep_class(assembly, prime, str(prime.rename("s")), slots,
                         types, mode, audit)
            for prime, slots, types in classes]


def verify_obstructed(spec: FamilySpec, c_max: int,
                      mode: str = "symbolic") -> ObstructionReport:
    """Evaluate, at complexity 1, every count vector of the slot types of
    each isotypic class, and carry the verdict to every complexity by the
    complexity-free certificate.

    OBSTRUCTED iff every cell's expression is verifiably nonzero; any
    unverifiable cell (exact zero, or an interval through zero) yields
    INCONCLUSIVE with witnesses.  The enumeration discharges the
    self-annihilating-submodule quantifier: a nonzero element of such a
    submodule reduces, by multiplying with the complementary primes, to a
    unit-coordinate element supported on a set of slots, whose value is
    that of its count vector's cell; and a self-annihilating submodule is
    nonzero because the form is nonsingular (validated at assembly).

    A refused certificate raises ObstructionError if any class has a slot.
    For c = 2..c_max each distinct block form is rebuilt by substituting
    t^c into its c=1 summands and Gram entries and validated; nothing else
    is computed at those complexities.
    """
    if c_max < 1:
        raise ObstructionError("c_max must be at least 1")
    if mode not in ("symbolic", "numeric"):
        raise ObstructionError(f"unknown mode {mode!r}")
    assembly = _assemble_full(spec)
    audit: dict[str, None] = {     # insertion-ordered set of lines
        f"c=1: assembled {len(assembly.blocks)} blocks; form validated "
        "hermitian, annihilating and nonsingular blockwise; by "
        "construction: the assembled form is the block sum of the "
        "copies' forms": None}
    found = _sweep(assembly, mode, audit)
    refused = [p for p in isotypic_decompose(assembly.module)
               if not capelli_certified(p)]
    if found and refused:
        raise ObstructionError(
            "complexity-free certificate refused for the isotypic prime(s) "
            f"{', '.join(f'({p})' for p in refused)}: only a linear prime "
            "t - r with r neither a p-th power in Q nor in -4Q^4 is known to "
            "stay irreducible under t -> t^c, so the c=1 cells need not hold "
            "at every complexity.  No genus-one pattern with a metabolizer "
            "has such a prime: its Alexander polynomial is (at - b)(bt - a) "
            "with |a - b| = 1, and b/a is positive, not 1 and no k-th power")

    patterns = dict.fromkeys(b.pattern for b in assembly.blocks)
    for c in range(2, c_max + 1):
        for pattern in patterns:
            _block_form(pattern)[0].subs_power(c).validate()
        audit[f"c={c}: {len(patterns)} distinct block forms rebuilt by "
              f"substituting t^{c} into the c=1 summands and Gram entries; "
              "validated hermitian, annihilating and nonsingular"] = None

    cells = tuple(cell for _, class_cells in found for cell in class_cells)
    witnesses = tuple(cell for cell in cells if not cell.nonvanishing)
    certified = bool(assembly.module.summands) and not refused
    verdict = "OBSTRUCTED" if cells and not witnesses else "INCONCLUSIVE"
    notes: list[str] = []
    if not cells:
        notes.append("no admissible patterns: every curve class is zero in "
                     "the module, so no complexity has a slot; nothing to "
                     "obstruct")
    if certified:
        notes.append(
            "complexity-free certificate: every isotypic prime is linear, "
            "t - r, with r neither a p-th power in Q for any prime p nor in "
            "-4Q^4, so by Capelli's theorem p(t^c) stays irreducible; each "
            "block form at complexity c is its c=1 form under t -> t^c, "
            "every cell at complexity c is its c=1 cell with the prime "
            "renamed, and the verdict holds for every c >= 1")
    notes.append(
        "complexity self-check: "
        + (f"the block forms at c = 2..{c_max} were rebuilt by substituting "
           "t^c and validated" if c_max > 1 else "none requested (c_max = 1)")
        + "; cells and slot types are listed at c=1 only")
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
        verdict=verdict, c_max=c_max, mode=mode, cells=cells,
        witnesses=witnesses, audit=tuple(audit), uniform_in_c=certified,
        notes=tuple(notes),
        slot_types=tuple(table for table, _ in found))
