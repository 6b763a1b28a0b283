"""Seifert-matrix knot calculus.

A knot enters the toolkit as a square integer Seifert matrix V of even
dimension with det(V - V^T) = ±1.  From V everything else is derived: the
Alexander polynomial det(tV - V^T), the homology of the infinite cyclic
cover, linking pairings and signatures.

`PatternKnot` decorates a genus-one Seifert matrix with named infection
curves, given by coordinate vectors in the presentation basis of the
homology module; satellites tie companion knots through the bands dual to
those curves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .linalg import det_int
from .polyalg import LaurentPoly, _int_content_primitive, _newton_interpolate

Transform = str  # one of "mirror", "reverse", "inverse"


class SeifertError(ValueError):
    pass


class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = ±1 (0x0 for the unknot)."""

    __slots__ = ("rows", "label")

    def __init__(self, rows, label: str | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SeifertError("Seifert matrix must be square")
        if n % 2 != 0:
            raise SeifertError("Seifert matrix must have even dimension")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if abs(det_int(skew)) != 1:
            raise SeifertError(
                "det(V - V^T) must be ±1 for a valid Seifert matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("SeifertMatrix is immutable")

    def __reduce__(self):
        return SeifertMatrix, (self.rows, self.label)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def genus(self) -> int:
        return self.dim // 2

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.rows[i][j]

    def transpose(self) -> "SeifertMatrix":
        return SeifertMatrix(tuple(zip(*self.rows)) if self.rows else (),
                             self.label)

    def __neg__(self) -> "SeifertMatrix":
        return SeifertMatrix(tuple(tuple(-x for x in row) for row in self.rows),
                             self.label)

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SeifertMatrix({[list(r) for r in self.rows]})"

    def presentation(self, variable: str = "t"):
        """The matrix vV - V^T over Q[v^{±1}] whose rows present H_1 of the
        infinite cyclic cover."""
        v = LaurentPoly.var(variable)
        n = self.dim
        return [[v * self.rows[i][j] - self.rows[j][i] for j in range(n)]
                for i in range(n)]


def knot_transform(V: SeifertMatrix, op: Transform) -> SeifertMatrix:
    """mirror: V -> -V;  reverse: V -> V^T;  inverse: V -> -V^T."""
    if op == "mirror":
        return -V
    if op == "reverse":
        return V.transpose()
    if op == "inverse":
        return -V.transpose()
    raise SeifertError(f"unknown transform {op!r}")


def connected_sum(Vs) -> SeifertMatrix:
    """Block-diagonal Seifert matrix of the connected sum."""
    Vs = list(Vs)
    if not Vs:
        raise SeifertError("connected sum of an empty list")
    total = sum(V.dim for V in Vs)
    rows = [[0] * total for _ in range(total)]
    off = 0
    for V in Vs:
        for i in range(V.dim):
            for j in range(V.dim):
                rows[off + i][off + j] = V[i, j]
        off += V.dim
    return SeifertMatrix(rows)


def alexander_polynomial(V: SeifertMatrix, variable: str = "t") -> LaurentPoly:
    """det(vV - V^T), normalized to lowest exponent 0 with positive leading
    coefficient.  The unknot gives 1.

    The determinant is an integer polynomial of degree <= n = dim V, so its
    values det(kV - V^T) at k = 0..n fix it; `polyalg._newton_interpolate`
    turns them into coefficients in integer arithmetic."""
    n = V.dim
    if n == 0:
        return LaurentPoly.one(variable)
    cols = list(zip(*V.rows))
    nodes = list(range(n + 1))
    coeffs = _newton_interpolate(nodes, [
        det_int([[k * a - b for a, b in zip(row, col)]
                 for row, col in zip(V.rows, cols)])
        for k in nodes])
    if coeffs is None:
        raise SeifertError(
            "determinant values do not interpolate to an integer polynomial")
    # integer-primitive, lowest exponent 0, positive leading coefficient
    return LaurentPoly.from_coeffs(
        _int_content_primitive(LaurentPoly.from_coeffs(coeffs, variable)),
        variable)


def metabolizer_search(V: SeifertMatrix | list) -> tuple[int, int] | None:
    """Primitive integer v with v^T V v = 0 for a 2x2 matrix, if any.

    v^T V v is the binary quadratic form a x^2 + b xy + c y^2 with
    a = V00, b = V01 + V10, c = V11; it has a nontrivial zero over Z iff
    b^2 - 4ac is a perfect square (including the degenerate a = 0 or c = 0
    cases).  Deterministic: returns (1,0) when a = 0, (0,1) when only
    c = 0, else the root with the '+' square root, sign-normalized.
    """
    rows = V.rows if isinstance(V, SeifertMatrix) else tuple(tuple(r) for r in V)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise SeifertError("metabolizer search requires a 2x2 (genus-one) matrix")
    a, b, c = rows[0][0], rows[0][1] + rows[1][0], rows[1][1]
    if a == 0:
        return (1, 0)
    if c == 0:
        return (0, 1)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    x, y = -b + s, 2 * a
    g = math.gcd(abs(x), abs(y))
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    if a * x * x + b * x * y + c * y * y != 0:
        raise SeifertError("metabolizer search produced a non-isotropic vector")
    return (x, y)


class _PatternKnotFields(NamedTuple):
    seifert: SeifertMatrix
    curves: tuple[tuple[str, tuple[LaurentPoly, ...]], ...]
    name: str = "pattern"


class PatternKnot(_PatternKnotFields):
    """A Seifert matrix with named infection-curve slots.

    Curve coordinates are vectors over Q[s^{±1}] in the presentation basis
    e_1..e_2g of the homology module (row i of sV - V^T reads as the
    relation sum_j (sV - V^T)[i][j] * e_j = 0).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        names = [n for n, _ in self.curves]
        if len(set(names)) != len(names):
            raise SeifertError("curve names must be unique")
        for n, vec in self.curves:
            if len(vec) != self.seifert.dim:
                raise SeifertError(
                    f"curve {n!r} has {len(vec)} coordinates, expected "
                    f"{self.seifert.dim}")
        return self

    @classmethod
    def from_int_vectors(cls, seifert: SeifertMatrix, curves: dict, name="pattern",
                         variable: str = "s") -> "PatternKnot":
        packed = tuple(
            (cname, tuple(LaurentPoly.constant(x, variable) for x in vec))
            for cname, vec in curves.items())
        return cls(seifert, packed, name)

    def curve_names(self) -> list[str]:
        return [n for n, _ in self.curves]

    def curve_vector(self, cname: str) -> tuple[LaurentPoly, ...]:
        for n, vec in self.curves:
            if n == cname:
                return vec
        raise SeifertError(f"no curve named {cname!r}")

    def transform(self, op: Transform) -> "PatternKnot":
        """Transform the underlying Seifert matrix, keeping curve slots on
        the same bands (the curves live on the same surface)."""
        suffix = {"mirror": "-mirror", "reverse": "-reverse", "inverse": "-inverse"}
        return PatternKnot(knot_transform(self.seifert, op), self.curves,
                           self.name + suffix[op])


# ---------------------------------------------------------------------------
# Built-in knots
# ---------------------------------------------------------------------------


def unknot() -> SeifertMatrix:
    return SeifertMatrix((), label="unknot")


def trefoil_right() -> SeifertMatrix:
    return SeifertMatrix([[-1, 1], [0, -1]], label="right trefoil")


def trefoil_left() -> SeifertMatrix:
    return SeifertMatrix([[1, -1], [0, 1]], label="left trefoil")


def pattern_9_46() -> PatternKnot:
    """The knot 9_46 with its two infection curves dual to the surface bands.

    The relation rows of sV - V^T make (2s-1)*e1 = 0 and (s-2)*e2 = 0, so
    curve 'alpha' = e1 generates the 2s-1 torsion line and 'beta' = e2 the
    s-2 line.
    """
    V = SeifertMatrix([[0, 1], [2, 0]], label="9_46")
    return PatternKnot.from_int_vectors(V, {"alpha": (1, 0), "beta": (0, 1)},
                                        name="9_46")
