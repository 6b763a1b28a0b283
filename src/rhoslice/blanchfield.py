"""Linking forms on Alexander modules.

The form is computed from a Seifert matrix in presentation coordinates as

    Bl(x, y) = (1 - v) * x^T (vV - V^T)^{-1} conj(y)

with conj the coefficient-wise substitution v -> v^{-1}; values live in
Q(v)/Q[v^{±1}].  The Smith normal form U A W = D of A = (vV - V^T)^T gives
(vV - V^T)^{-1} = U^T D^{-1} W^T, so each Gram entry is a sum over the
non-unit invariant factors d_i, with W^T applied once per generator and U
never formed: a generator's image under U is its CRT cofactor on one
coordinate, or a pattern curve's column carried by the Smith form
(`Decomposition.inverse_gram`); no determinant or adjugate of the
presentation is computed.  This convention is pinned by the validation
suite run at construction time: hermitian symmetry, annihilation of each
slot by the corresponding annihilator, and nonsingularity (the orthogonal
complement of the whole module is zero).  A form that fails any of these
raises instead of existing.

`LinkingForm.subs_power` applies v -> t^c to the summands and the Gram
entries, without splitting any summand.  Orthogonal complements, which
only the nonsingularity check of a module that is not cyclic needs, are
in `rhoslice.submodule`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import RhosliceError, submodule
from .almodule import (
    AlexanderModule,
    Decomposition,
    FracCoset,
    ModuleElement,
    Summand,
    _decompose,
)
from .polyalg import LaurentPoly, divides
from .seifert import PatternKnot, SeifertMatrix


class FormError(RhosliceError):
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
        if not submodule.annihilator_submodule(
                self, submodule.Submodule.whole(self.module)).is_zero():
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

    Returns (form, decomposition) in `variable`, of a knot or a pattern as
    `_decompose` takes it; the decomposition carries the map from
    presentation coordinates (where infection curves live, renamed into
    `variable`) to module coordinates.
    """
    dec = _decompose(V, variable)
    one_minus = LaurentPoly.one(variable) - LaurentPoly.var(variable)
    left = [[one_minus * c for c in u] for u in dec.images]
    right = [[c.conj() for c in g] for g in dec.gen_coords]
    form = LinkingForm(dec.module, dec.inverse_gram(left, right))
    form.validate()
    return form, dec
