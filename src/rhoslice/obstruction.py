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
each.  The engine assembles one block per member and part, which all its
copies share, so every copy of a type adds the expression e_t of copy 1,
and each type is evaluated once.  Types of equal expression are merged: a
distinct expression e of N_e copies in all, over its types, and a support
that takes K_e of them has the value sum_e K_e * e, which depends only on
its count vector K.  A count vector 0 <= K_e <= N_e (not all zero) stands
for its supports, so prod(N_e + 1) - 1 cells stand for the 2^(sum N_e) - 1
supports; K_e may be split among e's types in any way.

With s_e the symbol part of e and [lo_e, hi_e] its constant interval, the
cell K vanishes iff sum_e K_e s_e = 0 and sum_e K_e lo_e <= 0 <= sum_e K_e
hi_e.  Each class is first offered to Motzkin's transposition theorem
(Schrijver, Theory of Linear and Integer Programming, 1986, 7.8): an exact
two-phase simplex looks for y in Q^s and alpha, beta >= 0 with
y.s_e + alpha lo_e - beta hi_e > 0 for every distinct expression e.
Summed with the weights K_e of a vanishing cell, these margins would be
both > 0 and <= 0, so once the certificate passes an exact re-check
against every expression, no cell of the class vanishes and none is
evaluated.  A class without one, and a class of at most
`LISTED_CELLS_PER_CLASS` cells, is enumerated: one cell per count vector,
each one expression added to a running sum, one kept per position, as
integer vectors over the class's common denominator.
Every class is held to `MAX_SLOT_TYPES_PER_CLASS` before any slot is
evaluated, and only a class about to be enumerated to the cell and support
bounds; the support bound charges every cell when the cells are listed, and
otherwise the witnesses' supports as they are built.

The analytic ingredients enter as axioms with machine-checked hypotheses:

* vanishing over a slice-disk exterior: applied to a pattern only after
  verifying a genus-one metabolizer exists and the flagged curve pairs to
  zero with itself;
* invariance under composition with injective coefficient maps: applied
  after finding a coordinate of the reduced slot element, on a summand of
  the isotypic class, that the isotypic prime does not divide;
* additivity over connected sums and satellite pieces: reflected in the
  per-block evaluation; distinct copies are orthogonal on the assembled
  form by construction, as it is the block sum of the copies' forms.

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
at c = 1 only, and nothing is computed at any later complexity: `c_max` is
only echoed in the report.

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
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import RhosliceError, signatures
from .almodule import (
    ModuleElement,
    ModuleError,
    Summand,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
)
from .blanchfield import LinkingForm, blanchfield_form
from .polyalg import LaurentPoly, capelli_certified, divides
from .seifert import PatternKnot, Rho0Value, SeifertMatrix, metabolizer_search

# Count vectors the sweep evaluates in one isotypic class: as many as the
# supports of 20 slots.
MAX_CELLS_PER_CLASS = 2 ** 20 - 1
# Slot labels in the supports one class lists: its witnesses', or every
# cell's when its cells are listed, which grow with the cube of a member's
# multiplicity (the cells with its square).
MAX_SUPPORT_ENTRIES_PER_CLASS = 2 ** 20
# Slot types of one class, checked before any slot is evaluated: the
# simplex that looks for a certificate grows with their number.
MAX_SLOT_TYPES_PER_CLASS = 32
# A class of at most this many count vectors (two single-copy slot types,
# as in one knot K # -tK) is enumerated and its cells listed even when cells
# are not requested: they are as short to read as a certificate.
LISTED_CELLS_PER_CLASS = 3


class ObstructionError(RhosliceError):
    """A machine-checked hypothesis of an axiom failed, or the input is
    outside the engine's scope."""


# ---------------------------------------------------------------------------
# Companions, infected knots, families
# ---------------------------------------------------------------------------


class Companion(NamedTuple):
    """A companion knot, known only through its signature integral."""

    name: str
    rho: Rho0Value

    @classmethod
    def from_seifert(cls, name: str, V: SeifertMatrix) -> "Companion":
        return cls(name, signatures.rho0(V))

    @classmethod
    def trivial(cls) -> "Companion":
        return cls("unknot", Rho0Value.of_exact(0))

    def is_trivial(self) -> bool:
        return self.rho.kind == "exact" and self.rho.exact == 0


class InfectedKnot(NamedTuple):
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


class _FamilyMemberFields(NamedTuple):
    knot: InfectedKnot
    multiplicity: int
    # include the reversed-mirror summand (the default assembles
    # K # -tK per member; bare knots are for degenerate diagnostics)
    with_reverse: bool = True


class FamilyMember(_FamilyMemberFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.multiplicity == 0:
            raise ObstructionError("multiplicities must be nonzero")
        return self


class _FamilySpecFields(NamedTuple):
    members: tuple[FamilyMember, ...]
    names: tuple[str, ...] = ()


class FamilySpec(_FamilySpecFields):
    """The connected sum #_i n_i (K_i # -tK_i)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.members:
            raise ObstructionError("family must have at least one member")
        if self.names and len(self.names) != len(self.members):
            raise ObstructionError("one name per member")
        return self

    def member_name(self, i: int) -> str:
        return self.names[i] if self.names else f"K{i + 1}"

    @classmethod
    def single(cls, knot: InfectedKnot, name: str = "K") -> "FamilySpec":
        return cls((FamilyMember(knot, 1),), (name,))


# ---------------------------------------------------------------------------
# Formal rho expressions
# ---------------------------------------------------------------------------


class RhoExpr(NamedTuple):
    """Formal rational combination of companion symbols plus a numeric part
    carried as an exact interval [const_lo, const_hi] (equal when exact)."""

    const_lo: Fraction = Fraction(0)
    const_hi: Fraction = Fraction(0)
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def zero(cls) -> "RhoExpr":
        return cls()

    def __add__(self, other: "RhoExpr") -> "RhoExpr":
        """The sum: symbol coefficients and interval ends add, and
        coefficients that cancel to zero are dropped."""
        if not isinstance(other, RhoExpr):
            return NotImplemented
        packed = self.coeffs
        if other.coeffs:
            d = dict(packed)
            for name, v in other.coeffs:
                d[name] = d.get(name, Fraction(0)) + v
            packed = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        if other.const_lo or other.const_hi:
            return RhoExpr(self.const_lo + other.const_lo,
                           self.const_hi + other.const_hi, packed)
        return RhoExpr(self.const_lo, self.const_hi, packed)

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
            interval = f"[{self.const_lo}, {self.const_hi}]"
            parts.append(f"+ {interval}" if parts else interval)
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


class Slot(NamedTuple):
    """One potential support position: a curve of one copy of one member."""

    member: int          # index into spec.members
    copy: int            # 1..|n_i|
    reversed_part: bool  # False: the K_i block; True: the -tK_i block
    curve: str

    def label(self, spec: FamilySpec) -> str:
        tag = "~" if self.reversed_part else ""
        return f"{spec.member_name(self.member)}[{self.copy}]{tag}.{self.curve}"


class _Block(NamedTuple):
    """One member's K or -tK block, which its |n_i| copies share."""

    member: int                          # index into spec.members
    reversed_part: bool                  # the -tK block: companions are
                                         # reversed mirrors
    copies: int                          # |n_i|
    pattern: PatternKnot
    form: LinkingForm                    # block form, negated if sign < 0
    curve_class: dict[str, ModuleElement]   # curve -> class
    companion_of: dict[str, Companion]
    sign: int                            # multiplicity sign


class Assembly(NamedTuple):
    spec: FamilySpec
    # keyed (member, reversed_part), in slot order
    blocks: dict[tuple[int, bool], _Block]
    primes: tuple[LaurentPoly, ...]      # isotypic primes of the block sum


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


def _assemble_full(spec: FamilySpec) -> Assembly:
    blocks: dict[tuple[int, bool], _Block] = {}
    # members sharing a pattern share its form, built once in this call
    block_form = lru_cache(maxsize=None)(_block_form)
    for mi, member in enumerate(spec.members):
        base = member.knot.pattern
        sign = 1 if member.multiplicity > 0 else -1
        companions = {cname: member.knot.companion(cname)
                      for cname in base.curve_names()}
        parts = [(False, base)]
        if member.with_reverse:
            parts.append((True, base.transform("inverse")))
        for reversed_part, pat in parts:
            form, classes = block_form(pat)
            # mirror the block form for negative multiplicity (the honest
            # orientation; zero/nonzero structure is unaffected)
            blocks[(mi, reversed_part)] = _Block(
                mi, reversed_part, abs(member.multiplicity), pat,
                form if sign > 0 else form.negate(), classes, companions, sign)
    module = direct_sum([b.form.module for b in blocks.values()],
                        relabel=lambda i, label: f"{i}.{label}")
    return Assembly(spec, blocks, tuple(isotypic_decompose(module)))


# ---------------------------------------------------------------------------
# Slot types
# ---------------------------------------------------------------------------


def _slots_for_prime(assembly: Assembly, prime: LaurentPoly) -> list[Slot]:
    """The slot types of one class, each as its copy-1 slot, in slot order:
    the curves of each block whose class survives isotypic reduction."""
    out = []
    for block in assembly.blocks.values():
        for cname in block.pattern.curve_names():
            try:
                red = reduce_to_isotypic(block.curve_class[cname], prime)
            except ModuleError:
                continue  # this block has no component in the class
            if not red.is_zero():
                out.append(Slot(block.member, 1, block.reversed_part, cname))
    return out


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
    block = assembly.blocks[(slot.member, slot.reversed_part)]
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
    mirror_sign = -1 if block.reversed_part else 1
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
            + (" (reversed mirror)" if block.reversed_part else ""))
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
# Transposition certificates
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    """y in Q^s and alpha, beta >= 0 with margin y.s_e + alpha*lo_e -
    beta*hi_e > 0 for the symbol part s_e and constant interval [lo_e, hi_e]
    of every distinct expression e of a class.  A vanishing count vector K
    has sum_e K_e s_e = 0 and sum_e K_e lo_e <= 0 <= sum_e K_e hi_e, so its
    weighted sum of margins would be both > 0 and <= 0: no cell vanishes."""

    y: tuple[tuple[str, Fraction], ...]
    alpha: Fraction
    beta: Fraction

    def margin(self, expr: RhoExpr) -> Fraction:
        y = dict(self.y)
        return (sum((y.get(name, 0) * v for name, v in expr.coeffs),
                    self.alpha * expr.const_lo) - self.beta * expr.const_hi)

    def proves(self, exprs) -> bool:
        """The exact re-check: nonnegative alpha and beta, and a positive
        margin on every expression."""
        return (self.alpha >= 0 and self.beta >= 0
                and all(self.margin(e) > 0 for e in exprs))

    def __str__(self):
        y = ", ".join(f"{name}: {v}" for name, v in self.y)
        return f"y = {{{y}}}, alpha = {self.alpha}, beta = {self.beta}"

    def to_json(self):
        return {"y": {name: str(v) for name, v in self.y},
                "alpha": str(self.alpha), "beta": str(self.beta)}


def _simplex(rows: list[list[Fraction]], rhs: list[Fraction],
             cost: list[Fraction]) -> list[Fraction] | None:
    """A vertex x >= 0 of rows . x = rhs that minimizes cost . x, or None
    when no x >= 0 solves the rows.  Needs rhs >= 0 and cost >= 0, so that
    the minimum exists whenever a solution does.

    Exact two-phase simplex over Fraction on a dense tableau: phase 1
    minimizes the sum of one artificial variable per row, starting from the
    artificial basis; the artificials left basic at zero are pivoted out
    (or their redundant rows dropped); phase 2 minimizes the cost.  Bland's
    rule (the least column with negative reduced cost enters; the least
    basic index leaves among tied ratios) rules out cycling."""
    m, n = len(rows), len(cost)
    tab = [list(row) + [Fraction(i == j) for j in range(m)] + [b]
           for i, (row, b) in enumerate(zip(rows, rhs))]
    basis = list(range(n, n + m))
    # reduced costs of phase 1, and minus its objective value, last
    z = [-sum(col) for col in zip(*tab)]
    z[n:-1] = [Fraction(0)] * m

    def pivot(r: int, col: int) -> None:
        p = tab[r][col]
        tab[r][:] = [v / p for v in tab[r]]
        for row in tab + [z]:
            f = row[col]
            if f and row is not tab[r]:
                row[:] = [a - f * b for a, b in zip(row, tab[r])]
        basis[r] = col

    def minimize(width: int) -> None:
        while (col := next((j for j in range(width) if z[j] < 0),
                           None)) is not None:
            pivot(min((i for i, row in enumerate(tab) if row[col] > 0),
                      key=lambda i: (tab[i][-1] / tab[i][col], basis[i])),
                  col)

    minimize(n + m)
    if z[-1]:
        return None
    for r in reversed(range(len(tab))):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j]), None)
            if col is None:
                del tab[r], basis[r]
            else:
                pivot(r, col)
    full = list(cost) + [Fraction(0)] * m
    z[:] = [c - sum(full[b] * row[j] for b, row in zip(basis, tab))
            for j, c in enumerate(full + [Fraction(0)])]
    minimize(n)
    x = [Fraction(0)] * n
    for b, row in zip(basis, tab):
        x[b] = row[-1]
    return x


def _certificate(exprs: tuple[RhoExpr, ...]) -> Certificate | None:
    """The certificate of least sum |y_j| + alpha + beta with every margin
    at least 1, or None when the expressions admit none (then some nonzero
    K >= 0 has sum_e K_e s_e = 0 and sum_e K_e lo_e <= 0 <= sum_e K_e hi_e).

    Columns: y+ and y- per symbol, alpha, beta, a surplus per expression."""
    names = sorted({name for e in exprs for name, _ in e.coeffs})
    s, m = len(names), len(exprs)
    rows = []
    for t, e in enumerate(exprs):
        coeff = dict(e.coeffs)
        ys = [coeff.get(name, Fraction(0)) for name in names]
        rows.append(ys + [-v for v in ys] + [e.const_lo, -e.const_hi]
                    + [-Fraction(t == u) for u in range(m)])
    x = _simplex(rows, [Fraction(1)] * m,
                 [Fraction(1)] * (2 * s + 2) + [Fraction(0)] * m)
    if x is None:
        return None
    return Certificate(tuple((name, x[j] - x[s + j])
                             for j, name in enumerate(names)
                             if x[j] != x[s + j]),
                       x[2 * s], x[2 * s + 1])


# ---------------------------------------------------------------------------
# The verdict
# ---------------------------------------------------------------------------


class ReportCell(NamedTuple):
    """One count vector of one isotypic class at one complexity.  `counts`
    is indexed like the class's distinct expressions; `support` is the
    representative support, which takes each expression's copies from its
    types in type order, copies 1..k_t of each, listed in slot order."""

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


class SlotTypeTable(NamedTuple):
    """The slot types of one isotypic class at one complexity, merged by
    expression: per distinct expression, the copy-1 label and copy count of
    each of its types, in slot order, and the expression each copy adds;
    with the class's certificate, or None when it was enumerated."""

    complexity: int
    class_key: str
    prime: str
    types: tuple[tuple[tuple[str, int], ...], ...]
    rho: tuple[RhoExpr, ...]
    certificate: Certificate | None = None

    @property
    def copies(self) -> tuple[int, ...]:
        """N_e, the copies of each distinct expression over its types."""
        return tuple(sum(n for _, n in types) for types in self.types)

    def to_json(self):
        return {
            "c": self.complexity,
            "class": self.class_key,
            "prime": self.prime,
            "types": [{"types": [{"label": label, "copies": n}
                                 for label, n in types],
                       "copies": copies, "rho": expr.to_json()}
                      for types, copies, expr
                      in zip(self.types, self.copies, self.rho)],
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
        }


class ObstructionReport(NamedTuple):
    verdict: str                 # "OBSTRUCTED" | "INCONCLUSIVE"
    c_max: int
    mode: str
    cells: tuple[ReportCell, ...]      # the listed cells
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
            "schema": "rhoslice.report/5",
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


def _slot_table(assembly: Assembly, prime: LaurentPoly, key: str,
                types: list[Slot], mode: str, audit: dict[str, None]
                ) -> tuple[SlotTypeTable, list[list[int]]]:
    """The slot-type table of one isotypic class, with the indices into
    `types` of each distinct expression's types.  Each slot type's facts
    are computed and audited once, on copy 1, and types of equal
    expression are merged in order of first appearance."""
    groups: dict[RhoExpr, list[int]] = {}
    for j, slot in enumerate(types):
        expr, lines = _slot_expr(assembly, prime, slot, mode)
        for line in lines:
            audit.setdefault(f"c=1: {line}")
        groups.setdefault(expr, []).append(j)
    table = SlotTypeTable(1, key, str(prime), tuple(
        tuple((types[j].label(assembly.spec),
               assembly.blocks[types[j].member, types[j].reversed_part].copies)
              for j in group)
        for group in groups.values()), tuple(groups))
    audit.setdefault(_count_line(table))
    return table, list(groups.values())


def _sweep_class(table: SlotTypeTable, types: list[Slot],
                 groups: list[list[int]], spec: FamilySpec,
                 listed: bool) -> list[ReportCell]:
    """The cells of one isotypic class, one per count vector over its
    distinct expressions when `listed` and otherwise only the vanishing
    ones, sorted by (support size, slot positions of the representative
    support).  The representative takes the first K_e copies of each
    expression e: its types in type order, copies 1..n_t of each.  Copy c
    of type j sits at slot position (member, c, j), as a member's types
    are adjacent in `types`, K before -tK, in curve order.  The support
    bound is checked as each support is built, before any is returned.

    The sweep runs on integers: the distinct expressions are scaled to
    integer vectors over one common denominator of all their entries, each
    its symbol coefficients in sorted-name order, then lo, then hi, and a
    count vector's value may vanish unless a symbol coefficient is nonzero,
    lo > 0 or hi < 0.  Each value is one vector sum on a running sum kept
    per position, so only the cells returned grow with the count vectors."""
    keys = [[(types[j].member, copy, j) for j, (_, n) in zip(group, sized)
             for copy in range(1, n + 1)]
            for group, sized in zip(groups, table.types)]
    order = sorted(itertools.chain(*keys))
    rank = {key: i for i, key in enumerate(order)}
    copies = [[rank[key] for key in group] for group in keys]
    counted = itertools.product(*(range(len(c) + 1) for c in copies))
    names = sorted({name for e in table.rho for name, _ in e.coeffs})
    scaled = [[*map(e.coefficient, names), e.const_lo, e.const_hi]
              for e in table.rho]
    den = math.lcm(*(v.denominator for row in scaled for v in row))
    vectors = [tuple(int(v * den) for v in row) for row in scaled]

    # Past the zero vector, which next() skips, each count vector in product
    # order raises its last nonzero count by one and zeroes those after it.
    # prefix[j] is the value of the previous vector's counts before position j.
    prefix = [(0,) * (len(names) + 2)] * (len(next(counted)) + 1)
    rows = []
    n_entries = 0
    for counts in counted:
        last = max(j for j, k in enumerate(counts) if k)
        vec = tuple(map(int.__add__, prefix[last + 1], vectors[last]))
        prefix[last + 1:] = [vec] * (len(vectors) - last)
        nonzero = any(vec[:-2]) or vec[-2] > 0 or vec[-1] < 0
        if listed or not nonzero:
            support = sorted(i for c, k in zip(copies, counts) for i in c[:k])
            # listed cells were charged in full by `_check_enumerable`
            n_entries += len(support)
            if n_entries > MAX_SUPPORT_ENTRIES_PER_CLASS:
                raise ObstructionError(
                    f"c=1: the witnesses of the ({table.prime}) class list "
                    "more than MAX_SUPPORT_ENTRIES_PER_CLASS = "
                    f"{MAX_SUPPORT_ENTRIES_PER_CLASS} slot labels")
            rows.append((len(support), support, counts, vec, nonzero))
    rows.sort()
    labels = [types[j]._replace(copy=copy).label(spec)
              for _, copy, j in order]
    return [ReportCell(1, table.class_key, table.prime, counts,
                       tuple(labels[i] for i in support),
                       RhoExpr(Fraction(vec[-2], den), Fraction(vec[-1], den),
                               tuple((name, Fraction(v, den))
                                     for name, v in zip(names, vec) if v)),
                       nonzero)
            for _, support, counts, vec, nonzero in rows]


def _count_line(table: SlotTypeTable) -> str:
    sizes = table.copies
    return (f"c=1: ({table.prime}) class: {sum(sizes)} slots in "
            f"{sum(map(len, table.types))} slot types of {len(sizes)} "
            "distinct expressions; the slot facts of each type ran once, on "
            "copy 1, as its copies share one block form; "
            f"{math.prod(n + 1 for n in sizes) - 1} count vectors over the "
            f"distinct expressions stand for its 2^{sum(sizes)} - 1 supports")


def _classes(assembly: Assembly) -> list[tuple[LaurentPoly, list[Slot]]]:
    """(prime, slot types) of every isotypic class with slots, in class
    order.  The slot-type bound is checked for every class before any slot
    is evaluated."""
    classes = []
    for prime in assembly.primes:
        types = _slots_for_prime(assembly, prime)
        if len(types) > MAX_SLOT_TYPES_PER_CLASS:
            raise ObstructionError(
                f"c=1: the ({prime}) class has {len(types)} slot types, more "
                f"than MAX_SLOT_TYPES_PER_CLASS = {MAX_SLOT_TYPES_PER_CLASS}")
        if types:
            classes.append((prime, types))
    return classes


def _check_enumerable(table: SlotTypeTable, n_cells: int,
                      listed: bool) -> None:
    """The cell bound of a class about to be enumerated, and the support
    bound when all its cells are to be listed.  Otherwise only its
    witnesses' supports are built, and `_sweep_class` bounds them."""
    if n_cells > MAX_CELLS_PER_CLASS:
        raise ObstructionError(
            f"c=1: {n_cells} count vectors in the ({table.prime}) class "
            f"exceed the enumeration bound {MAX_CELLS_PER_CLASS}")
    # over all count vectors, each count averages half its expression's copies
    n_entries = (n_cells + 1) * sum(table.copies) // 2
    if listed and n_entries > MAX_SUPPORT_ENTRIES_PER_CLASS:
        raise ObstructionError(
            f"c=1: the supports of the ({table.prime}) class list {n_entries} "
            "slot labels, more than MAX_SUPPORT_ENTRIES_PER_CLASS = "
            f"{MAX_SUPPORT_ENTRIES_PER_CLASS}")


def _decide(assembly: Assembly, mode: str, cells: bool,
            audit: dict[str, None]
            ) -> list[tuple[SlotTypeTable, list[ReportCell], list[ReportCell]]]:
    """(slot-type table, listed cells, witnesses) of every isotypic class
    with slots, each keyed by its prime in the knot's variable s.

    A class of more than LISTED_CELLS_PER_CLASS count vectors is decided by
    its certificate when it has one; every other class is enumerated, and
    each of its vanishing count vectors is a witness.  Its cells are listed
    when `cells` is set or the class is that small.  With `cells`, a
    certified class is enumerated too, and a vanishing cell there refutes
    the certificate.  The cell bound, and the support bound of listed
    cells, are checked right before a class is enumerated; the supports of
    witnesses alone are bounded as the sweep builds them."""
    out = []
    for prime, types in _classes(assembly):
        table, groups = _slot_table(
            assembly, prime, str(prime.rename("s")), types, mode, audit)
        n_cells = math.prod(n + 1 for n in table.copies) - 1
        cert = (_certificate(table.rho)
                if n_cells > LISTED_CELLS_PER_CLASS else None)
        if cert is not None:
            if not cert.proves(table.rho):
                raise ObstructionError(
                    f"c=1: the certificate {cert} of the ({table.prime}) "
                    "class fails its exact re-check")
            table = table._replace(certificate=cert)
            audit.setdefault(
                f"c=1: ({table.prime}) class: certificate {cert} re-checked "
                "exactly: y.s_e + alpha*lo_e - beta*hi_e > 0 on each of its "
                f"{len(table.rho)} distinct expressions, so none of its "
                f"{n_cells} count vectors vanishes (Motzkin's transposition "
                "theorem)")
        if cert is not None and not cells:
            out.append((table, [], []))
            continue
        listed = cells or n_cells <= LISTED_CELLS_PER_CLASS
        _check_enumerable(table, n_cells, listed)
        class_cells = _sweep_class(table, types, groups, assembly.spec, listed)
        witnesses = [cell for cell in class_cells if not cell.nonvanishing]
        if cert is not None and witnesses:
            raise ObstructionError(
                f"c=1: the certificate {cert} of the ({table.prime}) class "
                f"is refuted by the vanishing cell {witnesses[0].support}")
        out.append((table, class_cells if listed else [], witnesses))
    return out


def verify_obstructed(spec: FamilySpec, c_max: int, mode: str = "symbolic",
                      cells: bool = False) -> ObstructionReport:
    """Decide, at complexity 1, every count vector over the distinct slot
    expressions of each isotypic class, and carry the verdict to every
    complexity by the complexity-free certificate.

    OBSTRUCTED iff no count vector's expression can vanish: each class
    either has a transposition certificate, re-checked exactly, or is
    enumerated with every cell verifiably nonzero.  Any unverifiable cell
    (exact zero, or an interval through zero) yields INCONCLUSIVE, and
    every such cell of an enumerated class is listed as a witness.  The
    count vectors discharge the self-annihilating-submodule quantifier: a
    nonzero element of such a submodule reduces, by multiplying with the
    complementary primes, to a unit-coordinate element supported on a set
    of slots, whose value is that of its count vector's cell; and a
    self-annihilating submodule is nonzero because the form is nonsingular
    (validated at assembly).

    The report lists the cells of every class when `cells` is set; without
    it, only those of enumerated classes of at most LISTED_CELLS_PER_CLASS
    count vectors, and a certified class evaluates no cell.

    A refused complexity-free certificate raises ObstructionError if any
    class has a slot.  `c_max` is only echoed: nothing is computed for it.
    """
    if c_max < 1:
        raise ObstructionError("c_max must be at least 1")
    if mode not in ("symbolic", "numeric"):
        raise ObstructionError(f"unknown mode {mode!r}")
    assembly = _assemble_full(spec)
    n_blocks = sum(b.copies for b in assembly.blocks.values())
    audit: dict[str, None] = {     # insertion-ordered set of lines
        f"c=1: assembled {n_blocks} blocks; form validated "
        "hermitian, annihilating and nonsingular blockwise; by "
        "construction: the assembled form is the block sum of the "
        "copies' forms": None}
    found = _decide(assembly, mode, cells, audit)
    refused = [p for p in assembly.primes if not capelli_certified(p)]
    if found and refused:
        raise ObstructionError(
            "complexity-free certificate refused for the isotypic prime(s) "
            f"{', '.join(f'({p})' for p in refused)}: only a linear prime "
            "t - r with r neither a p-th power in Q nor in -4Q^4 is known to "
            "stay irreducible under t -> t^c, so the c=1 cells need not hold "
            "at every complexity.  No genus-one pattern with a metabolizer "
            "has such a prime: its Alexander polynomial is (at - b)(bt - a) "
            "with |a - b| = 1, and b/a is positive, not 1 and no k-th power")

    listed = tuple(cell for _, class_cells, _ in found for cell in class_cells)
    witnesses = tuple(cell for _, _, class_witnesses in found
                      for cell in class_witnesses)
    certified = bool(assembly.primes) and not refused
    verdict = "OBSTRUCTED" if found and not witnesses else "INCONCLUSIVE"
    notes: list[str] = []
    if not found:
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
    notes.append("c_max: echoed only, and nothing is computed for it; "
                 "cells and slot types are listed at c=1 only")
    if any(table.certificate for table, _, _ in found):
        notes.append(
            "transposition certificate: a class with a certificate (y, alpha, "
            "beta) has y.s_e + alpha*lo_e - beta*hi_e > 0 on each distinct "
            "expression e of its slot types, with symbol part s_e and "
            "constant interval [lo_e, hi_e]; a vanishing count vector K would "
            "make the sum of K_e times these margins both > 0 and <= 0 "
            "(Motzkin's transposition theorem), so no cell of the class "
            "vanishes")
    if any(not class_cells for _, class_cells, _ in found):
        notes.append(
            f"cells: listed only for enumerated classes of at most "
            f"{LISTED_CELLS_PER_CLASS} count vectors; a certified class "
            "evaluates none, and a larger enumerated class keeps only its "
            "witnesses; cells=True (obstruct --cells) lists every count vector")
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
        verdict=verdict, c_max=c_max, mode=mode, cells=listed,
        witnesses=witnesses, audit=tuple(audit), uniform_in_c=certified,
        notes=tuple(notes), slot_types=tuple(table for table, _, _ in found))
