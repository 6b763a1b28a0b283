"""Linking forms on Alexander modules.

The form is computed from a Seifert matrix in presentation coordinates as

    Bl(x, y) = (1 - v) * x^T (vV - V^T)^{-1} conj(y)

with conj the coefficient-wise substitution v -> v^{-1}; values live in
Q(v)/Q[v^{±1}].  The Smith normal form U A W = D of A = (vV - V^T)^T gives
(vV - V^T)^{-1} = U^T D^{-1} W^T, so each Gram entry is a sum over the
invariant factors d_i (`Decomposition.inverse_form`); no determinant or
adjugate of the presentation is computed.  This convention is pinned by
the validation suite run at construction time: hermitian symmetry,
annihilation of each slot by the corresponding annihilator, and
nonsingularity (the orthogonal complement of the whole module is zero).
A form that fails any of these raises instead of existing.

`LinkingForm.subs_power` applies v -> t^c to the summands and the Gram
entries, without splitting any summand.  `annihilator_submodule` computes
orthogonal complements by exact linear algebra over Q, from one linear
functional: in Q[v]/(order), eps = the coefficient of v^(deg order - 1)
makes eps(a * b) a nondegenerate pairing, so x is orthogonal to a
submodule P exactly when eps(Bl(x, b)) = 0 for each vector b of a Q-basis
of P.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .almodule import (
    AlexanderModule,
    Decomposition,
    ModuleElement,
    Submodule,
    Summand,
    _decompose,
)
from .polyalg import FracCoset, LaurentPoly, div_exact, divides, reduce_mod
from .seifert import PatternKnot, SeifertMatrix


class FormError(ValueError):
    pass


class _LinkingFormFields(NamedTuple):
    module: AlexanderModule
    gram: tuple[tuple[FracCoset, ...], ...]


class LinkingForm(_LinkingFormFields):
    """Hermitian sesquilinear pairing into Q(v)/Q[v^{±1}] on an
    AlexanderModule, stored as the Gram matrix on the summand generators."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = self.module.rank
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise FormError("Gram matrix shape does not match the module")
        return self

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
        # a canonical coset num/den is killed by a exactly when den | a
        for i, s in enumerate(self.module.summands):
            for j, s2 in enumerate(self.module.summands):
                den = self.gram[i][j].den
                if not divides(den, s.annihilator):
                    raise FormError(
                        f"annihilator of generator {i} does not kill "
                        f"Bl({i},{j})")
                if not divides(den, s2.annihilator.conj()):
                    raise FormError(
                        f"annihilator of generator {j} does not kill "
                        f"Bl({i},{j}) on the right")
        if _cyclic_nonsingular(self):
            return
        if not annihilator_submodule(self, Submodule.whole(self.module)).is_zero():
            raise FormError("form is singular: the whole module has a "
                            "nonzero orthogonal complement")

    def subs_power(self, c: int, variable: str | None = None) -> "LinkingForm":
        """The form along v -> t^c: t^c substituted into every summand's
        annihilator and base and into every Gram entry.  No summand is
        split, so a base p(t^c) need not be prime.  Hermitian symmetry and
        annihilation commute with the substitution, and nonsingularity is
        kept as Q[t] is free over Q[t^c]; `validate` checks all three."""
        var = variable or self.variable
        module = AlexanderModule(var, c * self.module.complexity, tuple(
            Summand(s.annihilator.subs_power(c, var).monic(),
                    s.base.subs_power(c, var).monic(), s.mult, s.label)
            for s in self.module.summands))
        return LinkingForm(module, tuple(
            tuple(z.subs_power(c, var) for z in row) for row in self.gram))

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


def _cyclic_nonsingular(B: LinkingForm) -> bool:
    """A sufficient test for nonsingularity from one coset.

    Let g be the sum of the generators.  The denominator d of Bl(g, g) =
    sum_ij G_ij divides every a with a*g = 0, so when span(d) = dim_q the
    element g generates the module with annihilator d.  Then Bl(a*g, g) =
    a*n/d with n coprime to d vanishes only for d | a, that is a*g = 0: the
    form is nonsingular.  Modules that are not cyclic always fail the test.
    """
    total = sum((z for row in B.gram for z in row), FracCoset.zero(B.variable))
    return total.den.span == B.module.dim_q()


def blanchfield_form(V: SeifertMatrix | PatternKnot,
                     variable: str = "s") -> tuple[LinkingForm, Decomposition]:
    """The linking form of a knot, with the presentation decomposition.

    Returns (form, decomposition); the decomposition carries the map from
    presentation coordinates (where infection curves live) to module
    coordinates.
    """
    pattern = V if isinstance(V, PatternKnot) else None
    seifert = V.seifert if isinstance(V, PatternKnot) else V
    dec = _decompose(seifert, variable, curves=pattern)
    one_minus = LaurentPoly.one(variable) - LaurentPoly.var(variable)
    left = [[one_minus * c for c in g] for g in dec.gen_coords]
    right = [[c.conj() for c in g] for g in dec.gen_coords]
    form = LinkingForm(dec.module, tuple(
        tuple(dec.inverse_form(x, y) for y in right) for x in left))
    form.validate()
    return form, dec


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


def _epsilon_values(order: LaurentPoly, lo: int, hi: int) -> list[Fraction]:
    """[eps(v^m) for -lo <= m < hi], eps the coefficient of v^(n-1) in
    Q[v]/(order), n = deg(order), for a monic order with order(0) != 0.

    eps(v^m) is 0 for 0 <= m < n - 1 and 1 at m = n - 1; the rest follows
    from sum_j a_j eps(v^(m+j)) = 0, as eps kills every multiple of order.
    """
    a = order.poly_coeffs()
    n = len(a) - 1
    eps = [Fraction(0)] * (n - 1) + [Fraction(1)]
    while len(eps) < hi:
        eps.append(-sum(a[j] * eps[j - n] for j in range(n)))
    for _ in range(lo):
        eps.insert(0, -sum(a[j] * eps[j - 1] for j in range(1, n + 1)) / a[0])
    return eps


def annihilator_submodule(B: LinkingForm, P: Submodule) -> Submodule:
    """P^perp = {x : Bl(x, y) = 0 for all y in P}, by exact linear algebra.

    Values are carried in Q[v]/(order), where eps(a * b), eps the
    coefficient of v^(deg order - 1), is a nondegenerate pairing: its Hankel
    matrix on {v^k} is triangular with ones on the antidiagonal.  As P is
    closed under Laurent multiples and Bl(x, v^m y) = v^-m Bl(x, y), x is
    in P^perp exactly when eps(Bl(x, b)) = 0 for each Q-basis vector b of
    P: one rational linear condition per b.
    """
    M = B.module
    if P.ambient != M:
        raise FormError("submodule does not live in the form's module")
    dim = M.dim_q()
    if dim == 0:
        return Submodule(M, [])
    order = M.order().monic()
    gram = [[_coset_mod_order(z, order) for z in row] for row in B.gram]
    spans = [s.annihilator.span for s in M.summands]
    lo = max(spans) - 1
    eps = _epsilon_values(order, lo, order.span + lo)

    # unknowns x = sum x_ik v^k g_i; Bl(v^k g_i, b) = v^k w_i with
    # w_i = sum_j G_ij conj(b_j), a Laurent polynomial of low exponent >= -lo
    constraints: list[list[Fraction]] = []
    for b in P.basis_elements():
        row: list[Fraction] = []
        for i, d in enumerate(spans):
            w = LaurentPoly.zero(M.variable)
            for g, bj in zip(gram[i], b.coords):
                w = w + g * bj.conj()
            terms = w.items()
            row += [sum(q * eps[lo + k + e] for e, q in terms) for k in range(d)]
        constraints.append(row)

    return Submodule(M, [M.from_q_coords(vec)
                         for vec in linalg.nullspace(constraints, dim)])


def is_self_annihilating(B: LinkingForm, P: Submodule) -> bool:
    """True iff P equals its own orthogonal complement."""
    perp = annihilator_submodule(B, P)
    if not (P.contains_submodule(perp) and perp.contains_submodule(P)):
        return False
    # a self-annihilating submodule is half-dimensional over Q
    if 2 * P.dim_q() != B.module.dim_q():
        raise FormError("self-annihilating submodule must be half-dimensional")
    return True
