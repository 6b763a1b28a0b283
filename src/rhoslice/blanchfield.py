"""Linking forms on Alexander modules.

The form is computed from a Seifert matrix in presentation coordinates as

    Bl(x, y) = (1 - v) * x^T (vV - V^T)^{-1} conj(y)

with conj the coefficient-wise substitution v -> v^{-1}; values live in
Q(v)/Q[v^{±1}].  This convention is pinned by the validation suite run at
construction time: hermitian symmetry, annihilation of each slot by the
corresponding annihilator, and nonsingularity (the orthogonal complement of
the whole module is zero).  A form that fails any of these raises instead
of existing.

`basechange_form` applies v -> t^c to the Gram entries and splits the module
summands accordingly; `annihilator_submodule` computes orthogonal
complements by exact linear algebra over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .almodule import (
    AlexanderModule,
    BaseChange,
    Decomposition,
    ModuleElement,
    Submodule,
    _decompose,
    reparametrize,
)
from .linalg import poly_mat_adjugate
from .polyalg import FracCoset, LaurentPoly, div_exact, reduce_mod
from .seifert import PatternKnot, SeifertMatrix


class FormError(ValueError):
    pass


@dataclass(frozen=True)
class LinkingForm:
    """Hermitian sesquilinear pairing into Q(v)/Q[v^{±1}] on an
    AlexanderModule, stored as the Gram matrix on the summand generators."""

    module: AlexanderModule
    gram: tuple[tuple[FracCoset, ...], ...]

    def __post_init__(self):
        n = self.module.rank
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise FormError("Gram matrix shape does not match the module")

    @property
    def variable(self) -> str:
        return self.module.variable

    def pairing(self, x: ModuleElement, y: ModuleElement) -> FracCoset:
        if x.module != self.module or y.module != self.module:
            raise FormError("elements do not live in the form's module")
        acc = FracCoset.zero(self.variable)
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y.coords):
                if yj.is_zero():
                    continue
                acc = acc + self.gram[i][j].scale(xi * yj.conj())
        return acc

    def validate(self) -> None:
        """Check hermitian symmetry, annihilation and nonsingularity; raise
        FormError with a diagnostic on the first violation."""
        n = self.module.rank
        for i in range(n):
            for j in range(n):
                if self.gram[j][i] != self.gram[i][j].conj():
                    raise FormError(
                        f"not hermitian at generators ({i},{j}): "
                        f"{self.gram[j][i]} vs conj({self.gram[i][j]})")
        for i, s in enumerate(self.module.summands):
            for j, s2 in enumerate(self.module.summands):
                if not self.gram[i][j].scale(s.annihilator).is_zero():
                    raise FormError(
                        f"annihilator of generator {i} does not kill "
                        f"Bl({i},{j})")
                if not self.gram[i][j].scale(s2.annihilator.conj()).is_zero():
                    raise FormError(
                        f"annihilator of generator {j} does not kill "
                        f"Bl({i},{j}) on the right")
        whole = Submodule(self.module, [self.module.generator(i) for i in range(n)])
        if not annihilator_submodule(self, whole).is_zero():
            raise FormError("form is singular: the whole module has a "
                            "nonzero orthogonal complement")

    def negate(self) -> "LinkingForm":
        return LinkingForm(self.module,
                           tuple(tuple(-z for z in row) for row in self.gram))

    def to_json(self) -> dict:
        return {
            "module": self.module.to_json(),
            "gram": [[z.to_json() for z in row] for row in self.gram],
        }

    def __str__(self):
        rows = ["[" + ", ".join(str(z) for z in row) + "]" for row in self.gram]
        return "\n".join(rows) if rows else "[]"


def blanchfield_form(V: SeifertMatrix | PatternKnot, variable: str = "s",
                     validate: bool = True) -> tuple[LinkingForm, Decomposition]:
    """The linking form of a knot, with the presentation decomposition.

    Returns (form, decomposition); the decomposition carries the map from
    presentation coordinates (where infection curves live) to module
    coordinates.
    """
    pattern = V if isinstance(V, PatternKnot) else None
    seifert = V.seifert if isinstance(V, PatternKnot) else V
    dec = _decompose(seifert, variable, curves=pattern)
    module = dec.module
    n = seifert.dim
    if n == 0:
        form = LinkingForm(module, ())
        return form, dec
    pres = seifert.presentation(variable)
    adj, det = poly_mat_adjugate(pres)
    one_minus = LaurentPoly.one(variable) - LaurentPoly.var(variable)
    gram_rows = []
    for gi in dec.gen_coords:
        row = []
        for gj in dec.gen_coords:
            gj_bar = [c.conj() for c in gj]
            acc = LaurentPoly.zero(variable)
            for a in range(n):
                for b in range(n):
                    if gi[a].is_zero() or adj[a][b].is_zero() or gj_bar[b].is_zero():
                        continue
                    acc = acc + gi[a] * adj[a][b] * gj_bar[b]
            row.append(FracCoset(one_minus * acc, det))
        gram_rows.append(tuple(row))
    form = LinkingForm(module, tuple(gram_rows))
    if validate:
        form.validate()
    return form, dec


def basechange_form(B: LinkingForm, c: int,
                    validate: bool = True) -> tuple[LinkingForm, BaseChange]:
    """Base change of a linking form along v -> t^c.

    Gram entries are substituted and rescaled by the CRT cofactors of the
    split summands; the module is reparametrized alongside.  Returns
    (form, transport) where transport maps elements x to x in the new
    coordinates.
    """
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
            row.append(z.scale(comp_k * comp_l.conj()))
        rows.append(tuple(row))
    form = LinkingForm(target, tuple(rows))
    if validate:
        form.validate()
    return form, bc


def direct_sum_forms(forms, relabel=None, validate: bool = False) -> LinkingForm:
    """Block-diagonal sum of linking forms (pairings between different
    blocks vanish).  Validation of the blocks is assumed; hermitian-ness of
    the sum is inherited."""
    from .almodule import direct_sum

    forms = list(forms)
    module = direct_sum([f.module for f in forms], relabel=relabel)
    total = module.rank
    var = module.variable
    zero = FracCoset.zero(var)
    rows = [[zero] * total for _ in range(total)]
    off = 0
    for f in forms:
        r = f.module.rank
        for i in range(r):
            for j in range(r):
                rows[off + i][off + j] = f.gram[i][j]
        off += r
    form = LinkingForm(module, tuple(tuple(r) for r in rows))
    if validate:
        form.validate()
    return form


# ---------------------------------------------------------------------------
# Orthogonal complements
# ---------------------------------------------------------------------------


def _coset_mod_order(z: FracCoset, order: LaurentPoly) -> LaurentPoly:
    """Image of a coset with denominator dividing `order` under the
    isomorphism onto Q[v]/(order): z = n/d -> n * (order/d) mod order."""
    if z.is_zero():
        return LaurentPoly.zero(order.variable)
    quotient = div_exact(order, z.den)
    return reduce_mod(z.num * quotient, order)


def annihilator_submodule(B: LinkingForm, P: Submodule) -> Submodule:
    """P^perp = {x : Bl(x, y) = 0 for all y in P}, by exact linear algebra.

    Pairing against a fixed y is Q-linear in x; with all values carried in
    Q[v]/(order) the conditions become a rational linear system.
    """
    M = B.module
    if P.ambient != M:
        raise FormError("submodule does not live in the form's module")
    dim = M.dim_q()
    if dim == 0:
        return Submodule(M, [])
    order = M.order().monic()
    odeg = order.span
    var = M.variable

    # pairing of each Q-basis vector v^k * g_i with each P-basis element
    constraints: list[list[Fraction]] = []
    for b in P.basis_elements():
        # w_i = Bl(g_i, b) as a coset; then Bl(v^k g_i, b) = v^k * w_i
        col_of: list[list[Fraction]] = []
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
        # constraints: for each coefficient position, sum over unknowns = 0
        for pos in range(odeg):
            constraints.append([col[pos] for col in col_of])

    kernel = linalg.nullspace(constraints, dim)
    gens = []
    for vec in kernel:
        coords = []
        off = 0
        for s in M.summands:
            d = s.annihilator.span
            coords.append(LaurentPoly({k: vec[off + k] for k in range(d)}, var))
            off += d
        gens.append(M.element(tuple(coords)))
    return Submodule(M, gens)


def is_self_annihilating(B: LinkingForm, P: Submodule) -> bool:
    """True iff P equals its own orthogonal complement."""
    perp = annihilator_submodule(B, P)
    if not (P.contains_submodule(perp) and perp.contains_submodule(P)):
        return False
    # a self-annihilating submodule is half-dimensional over Q
    if 2 * P.dim_q() != B.module.dim_q():
        raise FormError("self-annihilating submodule must be half-dimensional")
    return True
