"""Torsion modules over Q[v^{±1}] presented by Seifert matrices.

The homology of the infinite cyclic cover is the cokernel of the relation
rows of vV - V^T.  Smith normal form over the Euclidean ring Q[v] turns the
presentation into a direct sum of cyclic modules Q[v]/(d_i); splitting each
d_i into prime powers (CRT) gives the canonical decomposition stored in
`AlexanderModule`.  The row transform U is never formed: the elimination
carries the pattern's curves through its row operations instead.

Module elements are per-summand coordinates reduced modulo the summand
annihilator; submodules live in `rhoslice.submodule`.

The quotient Q(v)/Q[v^{±1}], where the linking form takes its values, is
represented by `FracCoset`: a reduced fraction num/den with deg(num) <
deg(den), den an integer-primitive ordinary polynomial with positive
leading coefficient.  Canonical representatives are unique, so coset
equality is plain `==`.

The base change v -> t^c is substitution into the summands and the Gram
entries (`LinkingForm.subs_power`); it multiplies Q-dimension by c.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import RhosliceError
from .factor import factor_laurent
from .linalg import PolyMatrix, poly_mat_apply, poly_mat_identity
from .polyalg import (
    LaurentPoly,
    PolyalgError,
    _poly,
    _poly_sort_key,
    _primitive,
    div_exact,
    divides,
    equal_up_to_unit,
    gcd_laurent,
    inverse_mod,
    poly_divmod,
    reduce_mod,
)
from .seifert import PatternKnot, SeifertMatrix


class ModuleError(RhosliceError):
    pass


# ---------------------------------------------------------------------------
# Smith normal form over Q[v]
# ---------------------------------------------------------------------------


def smith_normal_form(A: PolyMatrix, C: PolyMatrix):
    """Smith normal form over Q[v^{±1}] (via the Euclidean ring Q[v]).

    Returns (U*C, D, W) with U*A*W = D exactly, U and W invertible over the
    Laurent ring (unit determinant), and D diagonal with monic exp-0
    entries satisfying d_1 | d_2 | ....  C has one row per row of A, and
    the row operations act on its rows, so U itself is never formed (pass
    the identity for U).  Nor is U^{-1}: as A*W = U^{-1}*D, column i of
    U^{-1} is column i of A*W divided exactly by a nonzero d_i.
    """
    if not A or not A[0] or len(C) != len(A):
        raise ModuleError("smith_normal_form requires a nonempty matrix A "
                          "and one row of C per row of A")
    m, n = len(A), len(A[0])
    var = A[0][0].variable
    D = [list(row) for row in A]
    UC = [list(row) for row in C]
    W = poly_mat_identity(n, var)

    def row_scale(i, unit):
        D[i] = [x * unit for x in D[i]]
        UC[i] = [x * unit for x in UC[i]]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        UC[i], UC[j] = UC[j], UC[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in W:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, f):
        # row_i += f * row_j
        D[i] = [a + f * b for a, b in zip(D[i], D[j])]
        UC[i] = [a + f * b for a, b in zip(UC[i], UC[j])]

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

    return UC, D, W


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
# Cosets in Q(v)/Q[v^{±1}]
# ---------------------------------------------------------------------------


def _coset_canonicalize(n: LaurentPoly, d: LaurentPoly):
    """(num, den) with num/den = n/d modulo Q[v^{±1}]: den integer-primitive
    of lowest exponent 0 and positive leading coefficient, num and den
    coprime, num reduced modulo den ((0, 1) for the zero coset).  Dividing
    by a unit and reducing modulo den keep num coprime to den, so one gcd
    suffices and the reduced num is nonzero."""
    var = n.variable
    zero = LaurentPoly.zero(var), LaurentPoly.one(var)
    if n.is_zero():
        return zero
    g = gcd_laurent(n, d)
    if g.span > 0:
        n, d = div_exact(n, g), div_exact(d, g)
    prim = _primitive(d.row)
    if len(prim) == 1:
        return zero
    canon = _poly(prim, 0, 1, var)
    return reduce_mod(n.shift(-d.start) * Fraction(d.den * prim[-1], d.row[-1]),
                      canon), canon


class FracCoset:
    """Canonical representative of an element of Q(v)/Q[v^{±1}]."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, *, _canonical=False):
        if den.is_zero():
            raise PolyalgError("zero denominator")
        num._check_var(den)
        if not _canonical:
            num, den = _coset_canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FracCoset is immutable")

    def __reduce__(self):
        return FracCoset, (self.num, self.den)

    @classmethod
    def zero(cls, variable: str = "t") -> "FracCoset":
        return cls(LaurentPoly.zero(variable), LaurentPoly.one(variable),
                   _canonical=True)

    @property
    def variable(self) -> str:
        return self.den.variable

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def scale(self, f) -> "FracCoset":
        """Multiply by a ring element (cosets form a Q[v^{±1}]-module)."""
        return FracCoset(self.num * f, self.den)

    def __add__(self, other):
        if not isinstance(other, FracCoset):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            self.den._check_var(other.den)
            return other if self.is_zero() else self
        return FracCoset(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __neg__(self):
        return FracCoset(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def conj(self) -> "FracCoset":
        """Apply v -> v^{-1}."""
        return FracCoset(self.num.conj(), self.den.conj())

    def subs_power(self, c: int, variable: str | None = None) -> "FracCoset":
        """The map induced by v -> w^c on the quotient.  The image of a
        canonical coset is canonical: Bezout relations survive the
        substitution, and every degree and exponent window scales by c."""
        return FracCoset(self.num.subs_power(c, variable),
                         self.den.subs_power(c, variable), _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, FracCoset):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_zero():
            return "0"
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"FracCoset('{self}')"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def coset_reduce(n: LaurentPoly, d: LaurentPoly) -> FracCoset:
    """Canonical representative of n/d in Q(v)/Q[v^{±1}]."""
    return FracCoset(n, d)


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
        coords = tuple(coords)
        if len(coords) != len(self.summands):
            raise ModuleError("coordinate count mismatch")
        return ModuleElement(self, tuple(
            reduce_mod(c if isinstance(c, LaurentPoly)
                       else LaurentPoly.constant(c, self.variable),
                       s.annihilator)
            for c, s in zip(coords, self.summands)))

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
                      key=_poly_sort_key)

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


# ---------------------------------------------------------------------------
# Decomposition of a Seifert presentation
# ---------------------------------------------------------------------------


class Decomposition(NamedTuple):
    """Smith-normal-form data connecting a Seifert presentation with the
    canonical module.  With A = (vV - V^T)^T and U*A*W = D = diag(d_i), the
    generator of a summand split off d_i is its CRT cofactor times column i
    of U^{-1}, which is column i of A*W divided by d_i, so its image under
    U is that cofactor on coordinate i.  A pattern curve adopted as a
    generator has the image the Smith form carried for it.  Only the
    coordinates at the non-unit d_i are kept, as the others meet no
    summand: `inverse_gram` evaluates (vV - V^T)^{-1} = U^T D^{-1} W^T from
    the images and the rows of W^T there.  Only this class and `_decompose`
    know that convention."""

    module: AlexanderModule
    gen_coords: tuple[tuple[LaurentPoly, ...], ...]  # e-basis coords per summand
    images: tuple[tuple[LaurentPoly, ...], ...]  # U * generator, at the non-unit d_i
    wtmatrix: PolyMatrix           # rows of W^T at the non-unit d_i
    invariants: tuple[LaurentPoly, ...]      # the non-unit d_i, each dividing the next
    snf_index: tuple[int, ...]     # which of them each summand came from
    curve_classes: dict[str, ModuleElement]  # pattern curve -> its class

    def inverse_gram(self, uxs, ys) -> tuple[tuple[FracCoset, ...], ...]:
        """[[x^T (vV - V^T)^{-1} y for y in ys] for x in xs], each x given by
        its image U*x at the non-unit d_i: each entry is the coset
        sum_i (Ux)_i (W^T y)_i / d_i over the last invariant factor, read off
        one matrix of the rows (W^T y)_i * last / d_i, so W^T is applied
        once to each y."""
        if not uxs:  # no summand, so no invariant factor either
            return ()
        last = self.invariants[-1]
        scales = [div_exact(last, d) for d in self.invariants]
        wys = [[b * f for b, f in zip(poly_mat_apply(self.wtmatrix, y), scales)]
               for y in ys]
        return tuple(tuple(FracCoset(z, last) for z in poly_mat_apply(wys, ux))
                     for ux in uxs)


def _decompose(V: SeifertMatrix | PatternKnot,
               variable: str = "s") -> Decomposition:
    """Present H_1 of the infinite cyclic cover from vV - V^T and decompose.

    V is a Seifert matrix or a pattern, whose curves the Smith form
    carries, one column each.  The class of a curve has coordinate k its
    column's entry on the row of summand k divided, modulo ann_k, by the
    entry of the generator's image there.  Curves that generate a summand outright (coordinate a unit on
    one summand, zero on the others) are adopted as that summand's
    generator and label, so curve classes have unit coordinates and
    pairings are expressed on the curves themselves; if two summands would
    then share a label, none is.  The curves are renamed into `variable`
    first, so every output is in `variable`."""
    V, curves = ((V.seifert, V.curves) if isinstance(V, PatternKnot)
                 else (V, ()))
    named = [(cname, tuple(x.rename(variable) for x in vec))
             for cname, vec in curves]
    n = V.dim
    if n == 0:
        module = AlexanderModule(variable, 1, ())
        return Decomposition(module, (), (), [], (), (),
                             {cname: module.zero() for cname, _ in named})
    pres = V.presentation(variable)
    A = [list(col) for col in zip(*pres)]  # relations = rows of pres = columns of A
    UC, D, W = smith_normal_form(A, [[vec[r] for _, vec in named]
                                     for r in range(n)])

    summands: list[Summand] = []
    gen_coords: list[tuple[LaurentPoly, ...]] = []
    images: list[tuple[LaurentPoly, ...]] = []
    snf_index: list[int] = []
    rows = [i for i in range(n) if not D[i][i].is_unit()]  # give the summands
    zero = LaurentPoly.zero(variable)
    for r, i in enumerate(rows):
        d = D[i][i]
        if d.is_zero():
            raise ModuleError("presentation is not torsion (zero diagonal)")
        # column i of U^{-1}, as A*W = U^{-1}*D
        u_inv = [div_exact(x, d)
                 for x in poly_mat_apply(A, [row[i] for row in W])]
        for base, mult in factor_laurent(d):
            ann = (base ** mult).monic()
            comp = div_exact(d, ann).monic()
            summands.append(Summand(ann, base, mult, f"g{len(summands) + 1}"))
            gen_coords.append(tuple(x * comp for x in u_inv))
            images.append(tuple(comp if k == r else zero for k in range(len(rows))))
            snf_index.append(r)

    def project(z):  # on the generators' images as they stand
        return tuple(reduce_mod(z[r] * inverse_mod(g[r], s.annihilator),
                                s.annihilator)
                     for r, g, s in zip(snf_index, images, summands))

    carried = [tuple(UC[i][c] for i in rows) for c in range(len(named))]
    adopted = {}  # summand index -> (curve name, vector, carried column)
    for (cname, vec), z in zip(named, carried):
        coords = project(z)
        hits = [k for k, c in enumerate(coords) if not c.is_zero()]
        k = hits[0] if len(hits) == 1 else None
        if (k is not None and k not in adopted
                and gcd_laurent(coords[k], summands[k].base).is_one()):
            adopted[k] = cname, vec, z
    labels = [adopted[k][0] if k in adopted else s.label
              for k, s in enumerate(summands)]
    if len(set(labels)) == len(labels):  # else conflicting: keep the defaults
        for k, (cname, vec, z) in adopted.items():
            summands[k] = summands[k]._replace(label=cname)
            gen_coords[k], images[k] = vec, z
    module = AlexanderModule(variable, 1, tuple(summands))
    return Decomposition(
        module, tuple(gen_coords), tuple(images),
        [[row[i] for row in W] for i in rows], tuple(D[i][i] for i in rows),
        tuple(snf_index), {cname: ModuleElement(module, project(z))
                           for (cname, _), z in zip(named, carried)})


def alexander_module(V: SeifertMatrix | PatternKnot, variable: str = "s") -> AlexanderModule:
    """Canonical prime-power cyclic decomposition of the Alexander module,
    in `variable`; for a pattern, `_decompose` also carries its curves."""
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
    return dict(sorted(out.items(), key=lambda kv: _poly_sort_key(kv[0])))


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
