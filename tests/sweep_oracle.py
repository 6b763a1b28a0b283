"""The per-complexity sweep over every copy, kept as an oracle for the
c = 1 sweep.

`verify_obstructed` assembles one block per member and part, evaluates
each slot type once at complexity 1, and carries the verdict to every c by
the complexity-free certificate.  Before that, it built every copy of
every block and summed them into one module and form, and it rebuilt every
block at every complexity c by base change: the module summands p(s)
became the irreducible factors of p(t^c) (`reparametrize`), the Gram
entries were substituted and rescaled by the CRT cofactors of the split
summands (`basechange_form`), curve classes were carried along
(`BaseChange.transport`), and each class was keyed by the c = 1 prime it
came from.  Each slot of each copy was evaluated.  With the certificate it
evaluated c = 1 and carried the cells to every later c under renamed
primes; without it, it swept every c.  That code lives here, unchanged in
what it computes, so that both sweeps can be compared with the production
one.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from rhoslice import obstruction
from rhoslice.almodule import (
    AlexanderModule,
    FracCoset,
    ModuleElement,
    ModuleError,
    Summand,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
)
from rhoslice.blanchfield import FormError, LinkingForm, blanchfield_form
from rhoslice.obstruction import (
    ObstructionError,
    ObstructionReport,
    ReportCell,
    RhoExpr,
    Slot,
)
from rhoslice.factor import capelli_certified, factor_laurent
from rhoslice.polyalg import (
    LaurentPoly,
    div_exact,
    divides,
    inverse_mod,
    reduce_mod,
)

from conftest import project_oracle, verifiably_nonzero


# -- base change with splitting and CRT cofactors --------------------------------


@dataclass(frozen=True)
class BaseChange:
    """Element transport x -> x (tensor) 1 along a reparametrization."""

    source: AlexanderModule
    target: AlexanderModule
    # per target summand: (source index, factor multiplier, inverse mod ann)
    plan: tuple[tuple[int, LaurentPoly, LaurentPoly], ...]
    power: int

    def transport(self, x: ModuleElement) -> ModuleElement:
        if x.module != self.source:
            raise ModuleError("element does not live in the base-change source")
        coords = []
        for (src, comp, comp_inv), s in zip(self.plan, self.target.summands):
            lifted = x.coords[src].subs_power(self.power, self.target.variable)
            coords.append(reduce_mod(lifted * comp_inv, s.annihilator))
        return ModuleElement(self.target, tuple(coords))


def reparametrize(M: AlexanderModule, c: int,
                  variable: str = "t") -> tuple[AlexanderModule, BaseChange]:
    """Base change along v -> w^c: each summand Q[v]/(p^m) becomes the sum
    over the irreducible factors r of p(w^c) of Q[w]/(r^m), with the
    transport resolved into the split coordinates.  A prime that
    `capelli_certified` accepts is not factored."""
    if c < 1:
        raise ModuleError("complexity must be a positive integer")
    if M.complexity != 1:
        raise ModuleError("reparametrize expects a complexity-1 module")
    summands: list[Summand] = []
    plan: list[tuple[int, LaurentPoly, LaurentPoly]] = []
    for idx, s in enumerate(M.summands):
        lifted_base = s.base.subs_power(c, variable).monic()
        factors = ([(lifted_base, 1)] if capelli_certified(s.base)
                   else factor_laurent(lifted_base))
        big = (lifted_base ** s.mult).monic()
        split = len(factors) > 1
        for fi, (r, mult_r) in enumerate(factors):
            mult = mult_r * s.mult
            ann = (r ** mult).monic()
            comp = div_exact(big, ann).monic()
            comp_inv = inverse_mod(comp, ann)
            label = f"{s.label}.{fi}" if split else s.label
            summands.append(Summand(ann, r, mult, label))
            plan.append((idx, comp, comp_inv))
    target = AlexanderModule(variable, c * M.complexity, tuple(summands))
    return target, BaseChange(M, target, tuple(plan), c)


def basechange_form(B: LinkingForm, c: int,
                    validate: bool = True) -> tuple[LinkingForm, BaseChange]:
    """Base change of a linking form along v -> t^c: Gram entries are
    substituted and rescaled by the CRT cofactors of the split summands."""
    if B.module.complexity != 1:
        raise FormError("base change expects a complexity-1 form")
    target, bc = reparametrize(B.module, c)
    n = target.rank
    rows = []
    for k in range(n):
        src_k, comp_k, _ = bc.plan[k]
        row = []
        for l in range(n):
            src_l, comp_l, _ = bc.plan[l]
            z = B.gram[src_k][src_l].subs_power(c, target.variable)
            comp = comp_k * comp_l.conj()
            row.append(z if comp.is_one() else z.scale(comp))
        rows.append(tuple(row))
    form = LinkingForm(target, tuple(rows))
    if validate:
        form.validate()
    return form, bc


# -- every copy, summed -----------------------------------------------------------


def direct_sum_forms(forms, relabel=None) -> LinkingForm:
    """Block-diagonal sum of linking forms (pairings between different
    blocks vanish).  Validation of the blocks is assumed; hermitian-ness of
    the sum is inherited."""
    forms = list(forms)
    module = direct_sum([f.module for f in forms], relabel=relabel)
    total = module.rank
    zero = FracCoset.zero(module.variable)
    rows = [[zero] * total for _ in range(total)]
    off = 0
    for f in forms:
        r = f.module.rank
        for i in range(r):
            for j in range(r):
                rows[off + i][off + j] = f.gram[i][j]
        off += r
    return LinkingForm(module, tuple(tuple(r) for r in rows))


def copy_keys(spec, blocks) -> list[tuple[int, int, bool]]:
    """(member, copy, reversed_part) of every copy, in slot order."""
    return [(mi, copy, rev) for mi, member in enumerate(spec.members)
            for copy in range(1, abs(member.multiplicity) + 1)
            for rev in (False, True) if (mi, rev) in blocks]


def sum_of_copies(spec, blocks, copies) -> LinkingForm:
    """The form of the whole family: every copy's block form, summed."""
    def relabel(i, label):
        mi, copy, rev = copies[i]
        tag = "~" if rev else ""
        return f"{spec.member_name(mi)}[{copy}]{tag}.{label}"

    return direct_sum_forms([blocks[(mi, rev)].form for mi, _, rev in copies],
                            relabel=relabel)


def assemble(spec, c: int) -> tuple[AlexanderModule, LinkingForm]:
    """Module and linking form of the assembled family at complexity c: the
    complexity-1 sum of every copy's block with t^c substituted, no summand
    split."""
    blocks = obstruction._assemble_full(spec).blocks
    form = sum_of_copies(spec, blocks, copy_keys(spec, blocks)).subs_power(c)
    return form.module, form


# -- assembly and the sweep at any complexity ------------------------------------


@lru_cache(maxsize=32)
def pattern_form(pattern):
    return blanchfield_form(pattern)


@lru_cache(maxsize=256)
def block_form_at_c(pattern, c: int):
    """(form_c, curve classes at complexity c) for one pattern block."""
    form_s, dec = pattern_form(pattern)
    form_c, transport = basechange_form(form_s, c)
    classes = {cname: transport.transport(project_oracle(pattern.seifert, dec, vec))
               for cname, vec in pattern.curves}
    return form_c, classes


@dataclass
class CopyAssembly:
    """The family at complexity c with every copy built: the blocks keyed
    (member, reversed_part), the copies in slot order, and the module and
    form of their sum."""

    spec: object
    complexity: int
    blocks: dict
    copies: list[tuple[int, int, bool]]
    module: AlexanderModule
    form: LinkingForm


def assemble_at(spec, c: int) -> CopyAssembly:
    """The assembled family at complexity c, from base-changed blocks."""
    blocks = {}
    for key, block in obstruction._assemble_full(spec).blocks.items():
        form, classes = block_form_at_c(block.pattern, c)
        blocks[key] = block._replace(form=form if block.sign > 0
                                     else form.negate(), curve_class=classes)
    copies = copy_keys(spec, blocks)
    form = sum_of_copies(spec, blocks, copies)
    return CopyAssembly(spec, c, blocks, copies, form.module, form)


def slots_for_prime(assembly: CopyAssembly, prime: LaurentPoly) -> list[Slot]:
    """Every slot of the class: the curves of each copy whose class
    survives isotypic reduction."""
    out = []
    for mi, copy, rev in assembly.copies:
        block = assembly.blocks[(mi, rev)]
        for cname in block.pattern.curve_names():
            try:
                red = reduce_to_isotypic(block.curve_class[cname], prime)
            except ModuleError:
                continue  # this block has no component in the class
            if not red.is_zero():
                out.append(Slot(mi, copy, rev, cname))
    return out


def slot_types(slots: list[Slot]) -> list[list[int]]:
    """Indices into `slots` grouped by slot type (member, block, curve), in
    order of first appearance; each group lists its copies in slot order."""
    types: dict[tuple[int, bool, str], list[int]] = {}
    for i, s in enumerate(slots):
        types.setdefault((s.member, s.reversed_part, s.curve), []).append(i)
    return list(types.values())


class TypeTable(NamedTuple):
    """The slot types of one isotypic class at one complexity, unmerged:
    each type's slot labels (copy 1 first) and the expression each of its
    copies adds."""

    complexity: int
    class_key: str
    prime: str
    slots: tuple[tuple[str, ...], ...]
    rho: tuple[RhoExpr, ...]
    certificate: None = None


def count_line(table: TypeTable) -> str:
    sizes = [len(labels) for labels in table.slots]
    return (f"c={table.complexity}: ({table.prime}) class: {sum(sizes)} slots "
            f"in {len(sizes)} slot types, and the copies of each type give "
            f"equal expressions; {math.prod(n + 1 for n in sizes) - 1} count "
            f"vectors stand for its 2^{sum(sizes)} - 1 supports")


def sweep_class(assembly: CopyAssembly, prime: LaurentPoly, key: str,
                slots: list[Slot], types: list[list[int]], mode: str,
                audit: dict[str, None]):
    """The slot-type table and the cells of one isotypic class, with every
    slot of every copy evaluated and audited; a type's expression is its
    first copy's."""
    c, spec = assembly.complexity, assembly.spec
    prime_name = str(prime)
    labels = [s.label(spec) for s in slots]
    exprs = []
    for slot in slots:
        block = assembly.blocks[(slot.member, slot.reversed_part)]
        x = reduce_to_isotypic(block.curve_class[slot.curve], prime)
        expr, lines = obstruction._slot_expr(assembly, prime, slot, x, mode)
        for line in lines:
            audit.setdefault(f"c={c}: {line}")
        exprs.append(expr)
    type_exprs = [exprs[t[0]] for t in types]
    counted = itertools.product(*(range(len(t) + 1) for t in types))
    zero = next(counted)
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
                                verifiably_nonzero(expr)))
    table = TypeTable(c, key, prime_name,
                      tuple(tuple(labels[i] for i in t) for t in types),
                      tuple(type_exprs))
    audit.setdefault(count_line(table))
    return table, cells


def isotypic_primes(assembly: CopyAssembly) -> list[tuple[LaurentPoly, str]]:
    """The isotypic primes with a complexity-independent key: the
    base-variable prime each came from."""
    keyed = []
    for prime in isotypic_decompose(assembly.module):
        key = None
        for block in assembly.blocks.values():
            base_form, _ = pattern_form(block.pattern)
            for s in base_form.module.summands:
                lifted = s.base.subs_power(assembly.complexity, prime.variable)
                if divides(prime, lifted):
                    key = str(s.base)
                    break
            if key:
                break
        keyed.append((prime, key or str(prime)))
    return keyed


def sweep(assembly: CopyAssembly, mode: str, audit: dict[str, None]):
    """(prime, slot-type table, cells) of every isotypic class with slots."""
    c = assembly.complexity
    classes = []
    for prime, key in isotypic_primes(assembly):
        slots = slots_for_prime(assembly, prime)
        types = slot_types(slots)
        n_cells = math.prod(len(t) + 1 for t in types) - 1
        if n_cells > obstruction.MAX_CELLS_PER_CLASS:
            raise ObstructionError(
                f"c={c}: {n_cells} count vectors in the ({prime}) class "
                f"exceed the enumeration bound {obstruction.MAX_CELLS_PER_CLASS}")
        if slots:
            classes.append((prime, key, slots, types))
    return [(prime, *sweep_class(assembly, prime, key, slots, types, mode,
                                 audit))
            for prime, key, slots, types in classes]


def transported(c: int, prime: LaurentPoly, table: TypeTable, cells):
    """A class's c=1 table and cells at complexity c, with the prime
    renamed to p(t^c)."""
    name = str(prime.subs_power(c).monic())
    return (TypeTable(c, table.class_key, name, table.slots, table.rho),
            [ReportCell(c, cell.class_key, name, cell.counts, cell.support,
                        cell.rho, cell.nonvanishing) for cell in cells])


def transport_line(c: int) -> str:
    return (f"c={c}: every slot fact is the c=1 fact under t -> t^{c} "
            "(complexity-free certificate: no isotypic prime splits); each "
            f"distinct block form was rebuilt by substituting t^{c} and "
            "validated")


def verify_obstructed(spec, c_max: int, mode: str = "symbolic",
                      certificate: bool = True) -> ObstructionReport:
    """The sweep over complexities 1..c_max.  With `certificate` it
    evaluates c = 1 only when the complexity-free certificate holds, and
    carries the cells to later c; without, it evaluates every c."""
    if c_max < 1:
        raise ObstructionError("c_max must be at least 1")
    if mode not in ("symbolic", "numeric"):
        raise ObstructionError(f"unknown mode {mode!r}")
    cells, witnesses, tables = [], [], []
    audit: dict[str, None] = {}
    notes = []
    by_pattern, class_keys_by_c = {}, {}
    base = assemble_at(spec, 1)
    certified = certificate and bool(base.module.summands) and all(
        capelli_certified(p) for p in isotypic_decompose(base.module))
    first = []

    for c in range(1, c_max + 1):
        audit.setdefault(
            f"c={c}: assembled {len(base.copies)} blocks; form validated "
            "hermitian, annihilating and nonsingular blockwise; by "
            "construction: the assembled form is the block sum of the "
            "copies' forms")
        if certified and c > 1:
            for pattern in dict.fromkeys(b.pattern for b in base.blocks.values()):
                block_form_at_c(pattern, c)
            audit.setdefault(transport_line(c))
            found = [(prime, *transported(c, prime, table, class_cells))
                     for prime, table, class_cells in first]
            for _, table, _ in found:
                audit.setdefault(count_line(table))
        else:
            found = sweep(assemble_at(spec, c), mode, audit)
        if c == 1:
            first = found
        class_keys_by_c[c] = tuple(sorted({t.class_key for _, t, _ in found}))
        if not found:
            notes.append(f"c={c}: no admissible patterns (trivial module)")
        for _, table, class_cells in found:
            tables.append(table)
            for cell in class_cells:
                cells.append(cell)
                if not cell.nonvanishing:
                    witnesses.append(cell)
                by_pattern.setdefault((table.class_key, cell.support),
                                      []).append(cell.rho)

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
    if certified:
        notes.append(
            "complexity-free certificate: every isotypic prime is linear, "
            "t - r, with r neither a p-th power in Q for any prime p nor in "
            "-4Q^4, so by Capelli's theorem p(t^c) stays irreducible; each "
            "block form at complexity c is its c=1 form under t -> t^c, "
            "every cell at complexity c is its c=1 cell with the prime "
            "renamed, and the verdict holds for every c >= 1")
        notes.append(
            f"sweep bound: complexities 1..{c_max} listed; c=1 evaluated and "
            "the rest carried along t -> t^c with their block forms "
            "validated; by the complexity-free certificate the verdict "
            "holds beyond this bound")
    else:
        notes.append(
            f"sweep bound: complexities 1..{c_max} checked; the verdict "
            "asserts nothing beyond this bound")
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
        witnesses=tuple(witnesses), audit=tuple(audit), uniform_in_c=uniform,
        notes=tuple(notes), slot_types=tuple(tables))
