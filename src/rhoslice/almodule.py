"""Torsion modules over Q[v^{±1}] presented by Seifert matrices.

The homology of the infinite cyclic cover is the cokernel of the relation
rows of vV - V^T.  Smith normal form over the Euclidean ring Q[v] turns the
presentation into a direct sum of cyclic modules Q[v]/(d_i); splitting each
d_i into prime powers (CRT) gives the canonical decomposition stored in
`AlexanderModule`.

Module elements are per-summand coordinates reduced modulo the summand
annihilator.  Submodules are stored by generators; membership is linear
algebra over Q on the finite basis {v^k * generator_i}.

The base change v -> t^c is substitution into the summands and the Gram
entries (`LinkingForm.subs_power`); it multiplies Q-dimension by c.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .linalg import PolyMatrix, poly_mat_apply, poly_mat_identity
from .polyalg import (
    FracCoset,
    LaurentPoly,
    div_exact,
    divides,
    equal_up_to_unit,
    factor_laurent,
    gcd_laurent,
    inverse_mod,
    poly_divmod,
    reduce_mod,
)
from .seifert import PatternKnot, SeifertMatrix


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Smith normal form over Q[v]
# ---------------------------------------------------------------------------


def smith_normal_form(A: PolyMatrix):
    """Smith normal form over Q[v^{±1}] (via the Euclidean ring Q[v]).

    Returns (U, D, W, U_inv) with U*A*W = D exactly, U and W invertible
    over the Laurent ring (unit determinant), D diagonal with monic exp-0
    entries satisfying d_1 | d_2 | ..., and U_inv = U^{-1}: each row
    operation on U is applied to U_inv as the inverse column operation.
    """
    if not A or not A[0]:
        raise ModuleError("smith_normal_form requires a nonempty matrix")
    m, n = len(A), len(A[0])
    var = A[0][0].variable
    D = [list(row) for row in A]
    U = poly_mat_identity(m, var)
    U_inv = poly_mat_identity(m, var)
    W = poly_mat_identity(n, var)

    def row_scale(i, unit):
        D[i] = [x * unit for x in D[i]]
        U[i] = [x * unit for x in U[i]]
        inv = unit.inverse_unit()
        for row in U_inv:
            row[i] = row[i] * inv

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in U_inv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in W:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, f):
        # row_i += f * row_j
        D[i] = [a + f * b for a, b in zip(D[i], D[j])]
        U[i] = [a + f * b for a, b in zip(U[i], U[j])]
        # so U_inv's col_j -= f * col_i
        for row in U_inv:
            row[j] = row[j] - f * row[i]

    def col_addmul(i, j, f):
        # col_i += f * col_j
        for row in D:
            row[i] = row[i] + f * row[j]
        for row in W:
            row[i] = row[i] + f * row[j]

    # clear negative exponents row by row (multiplying a row by v^k is a
    # unit row operation over the Laurent ring)
    for i in range(m):
        lows = [x.low for x in D[i] if not x.is_zero()]
        if lows and min(lows) < 0:
            row_scale(i, LaurentPoly.monomial(-min(lows), 1, var))

    def entry_norm(p: LaurentPoly) -> int:
        # Euclidean norm on the Laurent ring: degree of the unit-normalized
        # polynomial (units have norm 0)
        return p.span if not p.is_zero() else -1

    for p in range(min(m, n)):
        while True:
            # find the minimal-degree nonzero entry in the remaining block
            best = None
            for i in range(p, m):
                for j in range(p, n):
                    if not D[i][j].is_zero():
                        if best is None or entry_norm(D[i][j]) < entry_norm(D[best[0]][best[1]]):
                            best = (i, j)
            if best is None:
                break  # block is zero
            if best != (p, p):
                if best[0] != p:
                    row_swap(p, best[0])
                if best[1] != p:
                    col_swap(p, best[1])
            pivot = D[p][p]
            dirty = False
            for i in range(p + 1, m):
                if D[i][p].is_zero():
                    continue
                q, r = _poly_divmod_shifted(D[i][p], pivot)
                row_addmul(i, p, -q)
                if not r.is_zero():
                    dirty = True
            for j in range(p + 1, n):
                if D[p][j].is_zero():
                    continue
                q, r = _poly_divmod_shifted(D[p][j], pivot)
                col_addmul(j, p, -q)
                if not r.is_zero():
                    dirty = True
            if dirty:
                continue
            # row and column are clear; enforce divisibility into the rest
            offender = None
            for i in range(p + 1, m):
                for j in range(p + 1, n):
                    if not D[i][j].is_zero() and not divides(pivot, D[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(p, offender, LaurentPoly.one(var))

        # normalize the pivot to monic exp-0
        if not D[p][p].is_zero():
            _, q, k = D[p][p].unit_normal()
            unit = LaurentPoly.monomial(-k, Fraction(1) / q, var)
            row_scale(p, unit)

    return U, D, W, U_inv


def _poly_divmod_shifted(a: LaurentPoly, b: LaurentPoly):
    """Laurent division with remainder: a = q*b + r with span(r) < span(b)
    or r = 0.  Works on unit-normalized copies and restores the units."""
    am, aq, ak = a.unit_normal()
    bm, bq, bk = b.unit_normal()
    q0, r0 = poly_divmod(am, bm)
    q = q0 * LaurentPoly.monomial(ak - bk, aq / bq, a.variable)
    r = r0 * LaurentPoly.monomial(ak, aq, a.variable)
    return q, r


# ---------------------------------------------------------------------------
# Module data types
# ---------------------------------------------------------------------------


class Summand(NamedTuple):
    """One cyclic piece Q[v]/(annihilator) with annihilator = base^mult."""

    annihilator: LaurentPoly
    base: LaurentPoly
    mult: int
    label: str


class _AlexanderModuleFields(NamedTuple):
    variable: str
    complexity: int
    summands: tuple[Summand, ...]


class AlexanderModule(_AlexanderModuleFields):
    """Finite direct sum of prime-power cyclic torsion modules over
    Q[v^{±1}], tagged with a complexity (the exponent of the base change
    that produced it; 1 for a module in the knot's own variable).  Base
    change by substitution (`LinkingForm.subs_power`) keeps each summand
    whole, so there a base p(v^c) need not be prime."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        labels = [s.label for s in self.summands]
        if len(set(labels)) != len(labels):
            raise ModuleError("generator labels must be unique")
        for s in self.summands:
            if not equal_up_to_unit(s.base ** s.mult, s.annihilator):
                raise ModuleError("annihilator must be base^mult")
        return self

    @property
    def rank(self) -> int:
        return len(self.summands)

    def dim_q(self) -> int:
        """Dimension over Q."""
        return sum(s.annihilator.span for s in self.summands)

    def is_trivial(self) -> bool:
        return not self.summands

    def zero(self) -> "ModuleElement":
        z = LaurentPoly.zero(self.variable)
        return ModuleElement(self, tuple(z for _ in self.summands))

    def element(self, coords) -> "ModuleElement":
        coords = tuple(
            reduce_mod(c if isinstance(c, LaurentPoly)
                       else LaurentPoly.constant(c, self.variable),
                       s.annihilator)
            for c, s in zip(coords, self.summands))
        if len(coords) != len(self.summands):
            raise ModuleError("coordinate count mismatch")
        return ModuleElement(self, coords)

    def from_q_coords(self, qvec) -> "ModuleElement":
        """Inverse of ModuleElement.q_coords: the element with coordinates
        qvec in the Q-basis {v^k * gen_i : 0 <= k < span(ann_i)}."""
        coords = []
        off = 0
        for s in self.summands:
            d = s.annihilator.span
            coords.append(LaurentPoly({k: qvec[off + k] for k in range(d)}, self.variable))
            off += d
        return ModuleElement(self, tuple(coords))

    def generator(self, index: int) -> "ModuleElement":
        coords = [LaurentPoly.zero(self.variable)] * self.rank
        coords[index] = LaurentPoly.one(self.variable)
        return ModuleElement(self, tuple(coords))

    def generator_by_label(self, label: str) -> "ModuleElement":
        for i, s in enumerate(self.summands):
            if s.label == label:
                return self.generator(i)
        raise ModuleError(f"no summand labeled {label!r}")

    def annihilator_multiset(self) -> list[LaurentPoly]:
        return sorted((s.annihilator for s in self.summands),
                      key=lambda p: (p.span, tuple(p.poly_coeffs())))

    def order(self) -> LaurentPoly:
        """Product of all annihilators (the module's order ideal generator)."""
        out = LaurentPoly.one(self.variable)
        for s in self.summands:
            out = out * s.annihilator
        return out

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "complexity": self.complexity,
            "summands": [
                {"annihilator": s.annihilator.to_json(), "label": s.label}
                for s in self.summands
            ],
        }

    def __str__(self):
        if not self.summands:
            return "0"
        v = self.variable
        return " (+) ".join(f"Q[{v}]/({s.annihilator})" for s in self.summands)


class ModuleElement(NamedTuple):
    """Element of an AlexanderModule: one reduced coordinate per summand."""

    module: AlexanderModule
    coords: tuple[LaurentPoly, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if other.module is not self.module and other.module != self.module:
            raise ModuleError("elements of different modules")
        return self.module.element(
            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return self.module.element(tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "ModuleElement":
        if isinstance(f, (int, Fraction)):
            f = LaurentPoly.constant(f, self.module.variable)
        return self.module.element(tuple(c * f for c in self.coords))

    def times_var(self) -> "ModuleElement":
        return self.scale(LaurentPoly.var(self.module.variable))

    def q_coords(self) -> list[Fraction]:
        """Coordinates in the Q-basis {v^k * gen_i : 0 <= k < span(ann_i)}."""
        out: list[Fraction] = []
        for c, s in zip(self.coords, self.module.summands):
            d = s.annihilator.span
            dense = [Fraction(0)] * d
            for e, q in c.items():
                dense[e] = q
            out.extend(dense)
        return out

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.module == other.module and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coords]


class Submodule:
    """Q[v^{±1}]-submodule given by generators, with membership decided over
    the finite Q-basis of the ambient torsion module."""

    def __init__(self, ambient: AlexanderModule, generators):
        self.ambient = ambient
        self.generators = tuple(generators)
        self._basis = None
        self._pivots = None

    @classmethod
    def whole(cls, ambient: AlexanderModule) -> "Submodule":
        """The ambient module itself; its reduced Q-basis is the standard
        one, so no closure or row reduction is run."""
        sub = cls(ambient, [ambient.generator(i) for i in range(ambient.rank)])
        dim = ambient.dim_q()
        sub._basis = [[Fraction(int(i == j)) for j in range(dim)]
                      for i in range(dim)]
        sub._pivots = list(range(dim))
        return sub

    def q_basis(self):
        """Row-reduced Q-basis of the submodule (Krylov closure under v)."""
        if self._basis is None:
            dim = self.ambient.dim_q()
            rows = []
            for g in self.generators:
                x = g
                for _ in range(dim + 1):
                    rows.append(x.q_coords())
                    x = x.times_var()
            self._basis, self._pivots = linalg.rref(rows) if rows else ([], [])
        return self._basis

    def dim_q(self) -> int:
        return len(self.q_basis())

    def is_zero(self) -> bool:
        return self.dim_q() == 0

    def contains(self, x: ModuleElement) -> bool:
        return self._spans(x.q_coords())

    def contains_submodule(self, other: "Submodule") -> bool:
        return all(self._spans(row) for row in other.q_basis())

    def _spans(self, vec) -> bool:
        """True iff the Q-vector vec reduces to zero against the reduced
        basis, whose rows are 1 at their pivot and 0 at the other pivots."""
        for row, p in zip(self.q_basis(), self._pivots):
            f = vec[p]
            if f != 0:
                vec = [a - f * r for a, r in zip(vec, row)]
        return not any(vec)

    def basis_elements(self) -> list[ModuleElement]:
        return [self.ambient.from_q_coords(row) for row in self.q_basis()]

    def __eq__(self, other):
        if not isinstance(other, Submodule):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.contains_submodule(other)
                and other.contains_submodule(self))

    def __repr__(self):
        return f"Submodule(dim_Q={self.dim_q()} of {self.ambient})"


# ---------------------------------------------------------------------------
# Decomposition of a Seifert presentation
# ---------------------------------------------------------------------------


class Decomposition(NamedTuple):
    """Smith-normal-form data connecting a Seifert presentation with the
    canonical module.  With A = (vV - V^T)^T and U*A*W = D = diag(d_i), the
    generator of a summand split off d_i is its CRT cofactor times column i
    of U^{-1}; `project` maps presentation vectors to summand coordinates
    through U, and `inverse_form` evaluates (vV - V^T)^{-1} = U^T D^{-1} W^T.
    Only this class and `_decompose` know that convention."""

    module: AlexanderModule
    gen_coords: tuple[tuple[LaurentPoly, ...], ...]  # e-basis coords per summand
    umatrix: PolyMatrix            # U
    wtmatrix: PolyMatrix           # W^T
    invariants: tuple[LaurentPoly, ...]      # d_1 | d_2 | ... | d_n
    snf_index: tuple[int, ...]     # which SNF diagonal each summand came from
    cofactor_inv: tuple[LaurentPoly, ...]    # inverse of d_i / ann_i mod ann_i

    def project(self, evec) -> ModuleElement:
        """Class of a presentation-basis vector in the canonical module."""
        evec = [x if isinstance(x, LaurentPoly)
                else LaurentPoly.constant(x, self.module.variable) for x in evec]
        z = poly_mat_apply(self.umatrix, list(evec))
        coords = []
        for k, s in enumerate(self.module.summands):
            i = self.snf_index[k]
            a = reduce_mod(z[i] * self.cofactor_inv[k], s.annihilator)
            coords.append(a)
        return ModuleElement(self.module, tuple(coords))

    def inverse_form(self, x, y) -> FracCoset:
        """x^T (vV - V^T)^{-1} y for presentation vectors x and y, as the
        coset sum_i (Ux)_i (W^T y)_i / d_i put over the last invariant
        factor."""
        last = self.invariants[-1]
        acc = LaurentPoly.zero(self.module.variable)
        for a, b, d in zip(poly_mat_apply(self.umatrix, x),
                           poly_mat_apply(self.wtmatrix, y), self.invariants):
            if not (d.is_unit() or a.is_zero() or b.is_zero()):
                acc = acc + a * b * div_exact(last, d)
        return FracCoset(acc, last)


def _decompose(V: SeifertMatrix, variable: str = "s",
               curves: PatternKnot | None = None) -> Decomposition:
    """Present H_1 of the infinite cyclic cover from vV - V^T and decompose."""
    n = V.dim
    if n == 0:
        module = AlexanderModule(variable, 1, ())
        return Decomposition(module, (), [], [], (), (), ())
    pres = V.presentation(variable)
    A = [list(col) for col in zip(*pres)]  # relations = rows of pres = columns of A
    U, D, W, U_inv = smith_normal_form(A)

    summands: list[Summand] = []
    gen_coords: list[tuple[LaurentPoly, ...]] = []
    snf_index: list[int] = []
    cofactor_inv: list[LaurentPoly] = []
    auto = 0
    for i in range(n):
        d = D[i][i]
        if d.is_zero():
            raise ModuleError("presentation is not torsion (zero diagonal)")
        if d.is_unit():
            continue
        d = d.monic()
        for base, mult in factor_laurent(d):
            ann = (base ** mult).monic()
            comp = div_exact(d, ann).monic()
            comp_inv = inverse_mod(comp, ann)
            auto += 1
            summands.append(Summand(ann, base, mult, f"g{auto}"))
            gen_coords.append(tuple(U_inv[r][i] * comp for r in range(n)))
            snf_index.append(i)
            cofactor_inv.append(comp_inv)

    module = AlexanderModule(variable, 1, tuple(summands))
    dec = Decomposition(module, tuple(gen_coords), U,
                        [list(col) for col in zip(*W)],
                        tuple(D[i][i] for i in range(n)), tuple(snf_index),
                        tuple(cofactor_inv))
    if curves is not None:
        dec = _label_from_curves(dec, curves)
    return dec


def _label_from_curves(dec: Decomposition, pattern: PatternKnot) -> Decomposition:
    """Adopt curves that generate a summand outright (coordinate a unit on
    one summand, zero on the others) as that summand's generator and label,
    so curve classes have unit coordinates and pairings are expressed on the
    curves themselves."""
    names = list(s.label for s in dec.module.summands)
    gens = list(dec.gen_coords)
    cofinvs = list(dec.cofactor_inv)
    claimed: set[int] = set()
    for cname, vec in pattern.curves:
        elem = dec.project(vec)
        hits = [k for k, c in enumerate(elem.coords) if not c.is_zero()]
        if len(hits) != 1 or hits[0] in claimed:
            continue
        k = hits[0]
        s = dec.module.summands[k]
        coord = elem.coords[k]
        g = gcd_laurent(coord, s.base)
        if not g.is_one():
            continue
        names[k] = cname
        claimed.add(k)
        gens[k] = tuple(
            x if isinstance(x, LaurentPoly)
            else LaurentPoly.constant(x, dec.module.variable) for x in vec)
        unit_inv = inverse_mod(coord, s.annihilator)
        cofinvs[k] = reduce_mod(cofinvs[k] * unit_inv, s.annihilator)
    if len(set(names)) != len(names):
        return dec  # conflicting labels: keep defaults
    new_summands = tuple(
        Summand(s.annihilator, s.base, s.mult, names[k])
        for k, s in enumerate(dec.module.summands))
    module = AlexanderModule(dec.module.variable, dec.module.complexity,
                             new_summands)
    return dec._replace(module=module, gen_coords=tuple(gens),
                        cofactor_inv=tuple(cofinvs))


def alexander_module(V: SeifertMatrix | PatternKnot, variable: str = "s") -> AlexanderModule:
    """Canonical prime-power cyclic decomposition of the Alexander module."""
    if isinstance(V, PatternKnot):
        return _decompose(V.seifert, variable, curves=V).module
    return _decompose(V, variable).module


# ---------------------------------------------------------------------------
# Reversal, isotypic structure
# ---------------------------------------------------------------------------


def reverse_module(M: AlexanderModule) -> AlexanderModule:
    """The module of the reversed-and-mirrored knot: v acts as v^{-1}, so
    each annihilator p(v) becomes the monic normalization of p(v^{-1})."""
    summands = tuple(
        Summand((s.base.conj().monic() ** s.mult).monic(),
                s.base.conj().monic(), s.mult, s.label)
        for s in M.summands)
    return AlexanderModule(M.variable, M.complexity, summands)


def isotypic_decompose(M: AlexanderModule) -> dict[LaurentPoly, list[int]]:
    """Partition summand indices by their irreducible base prime."""
    out: dict[LaurentPoly, list[int]] = {}
    for i, s in enumerate(M.summands):
        out.setdefault(s.base.monic(), []).append(i)
    return dict(sorted(out.items(),
                       key=lambda kv: (kv[0].span, tuple(kv[0].poly_coeffs()))))


def reduce_to_isotypic(x: ModuleElement, prime: LaurentPoly) -> ModuleElement:
    """Multiply x by the complementary primes (to their maximal power) so that
    only the prime-isotypic coordinates survive; the action on the chosen
    component is invertible."""
    M = x.module
    prime = prime.monic()
    classes = isotypic_decompose(M)
    if prime not in classes:
        raise ModuleError(f"no {prime}-isotypic component in the module")
    multiplier = LaurentPoly.one(M.variable)
    for other, idxs in classes.items():
        if other == prime:
            continue
        maxmult = max(M.summands[i].mult for i in idxs)
        multiplier = multiplier * (other ** maxmult)
    return x.scale(multiplier)


def direct_sum(modules, relabel=None) -> AlexanderModule:
    """Direct sum; labels must stay unique (pass relabel=lambda i,lbl: ...)."""
    modules = list(modules)
    if not modules:
        raise ModuleError("direct sum of an empty list")
    variable = modules[0].variable
    complexity = modules[0].complexity
    summands = []
    for i, m in enumerate(modules):
        if m.variable != variable or m.complexity != complexity:
            raise ModuleError("direct sum requires matching variable and complexity")
        for s in m.summands:
            label = relabel(i, s.label) if relabel else s.label
            summands.append(Summand(s.annihilator, s.base, s.mult, label))
    return AlexanderModule(variable, complexity, tuple(summands))
