"""Submodules and orthogonal complements under a linking form.

Submodules are stored by generators; membership is linear algebra over Q
on the finite basis {v^k * generator_i}, by rational row reduction.
`annihilator_submodule` computes orthogonal complements by exact linear
algebra over Q, from one linear functional: in Q[v]/(order), eps = the
coefficient of v^(deg order - 1) makes eps(a * b) a nondegenerate pairing,
so x is orthogonal to a submodule P exactly when eps(Bl(x, b)) = 0 for
each vector b of a Q-basis of P.

No command computes a complement on a cyclic module, so this layer is
compiled only when `LinkingForm.validate` falls back to it on a module
that is not cyclic, or when a library caller asks for one.
"""

from __future__ import annotations

from fractions import Fraction

from .almodule import AlexanderModule, FracCoset, ModuleElement
from .blanchfield import FormError, LinkingForm
from .polyalg import LaurentPoly, div_exact, reduce_mod

Row = list[Fraction]
Matrix = list[Row]


# ---------------------------------------------------------------------------
# Rational row reduction and submodules
# ---------------------------------------------------------------------------


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Zero rows are dropped.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : rows @ x = 0} as a list of length-ncols vectors."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


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
            self._basis, self._pivots = rref(rows) if rows else ([], [])
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
                         for vec in nullspace(constraints, dim)])


def is_self_annihilating(B: LinkingForm, P: Submodule) -> bool:
    """True iff P equals its own orthogonal complement."""
    perp = annihilator_submodule(B, P)
    if not (P.contains_submodule(perp) and perp.contains_submodule(P)):
        return False
    # a self-annihilating submodule is half-dimensional over Q
    if 2 * P.dim_q() != B.module.dim_q():
        raise FormError("self-annihilating submodule must be half-dimensional")
    return True
