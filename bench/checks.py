"""Output checks built from computations made apart from the program.

Nothing here imports rhoslice.  The Alexander polynomial is recomputed by
integer determinants and interpolation, the signature integral by numpy
eigenvalues on a grid, and sweep verdicts follow from how the documents
were built.  No check needs the report to list every cell: the cells that
are listed are checked, and a report that lists none still passes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """An output contradicts an independent computation."""


# Exit codes of `rhoslice obstruct`.
VERDICT_EXIT = {"OBSTRUCTED": 0, "INCONCLUSIVE": 2}
# Grid cells on the half circle (0, 1/2) for the numeric signature integral.
SIGNATURE_GRID = 20000


def check(op, exit_code: int, stdout: str) -> None:
    """Raise CheckError unless `stdout` and `exit_code` are right for op."""
    if op.command == "obstruct":
        check_obstruct(op.expect, exit_code, stdout)
    elif op.command == "info":
        check_info(op.expect["seifert"], exit_code, stdout)
    elif op.command == "signature":
        check_signature(op.expect["seifert"], exit_code, stdout)
    else:
        raise CheckError(f"no check for command {op.command!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _load(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# obstruct
# ---------------------------------------------------------------------------


def _rho(cell: dict) -> tuple[dict[str, Fraction], Fraction, Fraction]:
    rho = cell["rho"]
    coeffs = {k: Fraction(v) for k, v in rho["coefficients"].items()}
    if "constant" in rho:
        lo = hi = Fraction(rho["constant"])
    else:
        lo, hi = (Fraction(x) for x in rho["constant_interval"])
    return coeffs, lo, hi


def check_obstruct(expect: dict, exit_code: int, stdout: str) -> None:
    report = _load(stdout)
    verdict = report.get("verdict")
    _require(verdict in VERDICT_EXIT, f"unknown verdict {verdict!r}")
    _require(exit_code == VERDICT_EXIT[verdict],
             f"exit code {exit_code} with verdict {verdict}")
    _require(verdict == expect["verdict"],
             f"verdict {verdict}, expected {expect['verdict']}")
    _require(report.get("c_max") == expect["cmax"]
             and report.get("mode") == expect["mode"],
             "report does not echo the requested sweep")
    witnesses = report.get("witnesses", [])
    if verdict == "OBSTRUCTED":
        _require(not witnesses, "OBSTRUCTED report lists witnesses")
    else:
        _require(bool(witnesses), "INCONCLUSIVE report has no witness")
        for w in witnesses:
            coeffs, lo, hi = _rho(w)
            _require(all(v == 0 for v in coeffs.values()) and lo == hi == 0,
                     f"witness {w.get('support')} is not exactly zero")
        _require(any(len(w["support"]) == 2 for w in witnesses),
                 "no witness pairs the two cancelling slots")
    if expect.get("uniform_in_c"):
        _require(report.get("uniform_in_c") is True,
                 "uniform_in_c is not true")
    unit = expect.get("constant_unit")
    for cell in report.get("cells", []):
        coeffs, lo, hi = _rho(cell)
        nonzero = any(v != 0 for v in coeffs.values()) or lo > 0 or hi < 0
        _require(cell["nonvanishing"] == nonzero,
                 f"cell {cell.get('support')} misreports its vanishing")
        if unit is not None:
            _require(lo == hi and (lo / unit).denominator == 1,
                     f"constant {lo} is not a multiple of {unit}")


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def alexander_coefficients(V: list[list[int]]) -> list[Fraction]:
    """Coefficients of det(tV - V^T) (lowest degree first), from its values
    at t = 0..n and Lagrange interpolation."""
    n = len(V)
    if n == 0:
        return [Fraction(1)]
    xs = list(range(n + 1))
    ys = [_det([[Fraction(t * V[i][j] - V[j][i]) for j in range(n)]
                for i in range(n)]) for t in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for m, xm in enumerate(xs):
            if m == k:
                continue
            basis = [Fraction(0)] + basis
            for i in range(len(basis) - 1):
                basis[i] -= xm * basis[i + 1]
            denom *= xk - xm
        for i, b in enumerate(basis):
            coeffs[i] += yk * b / denom
    return coeffs


def _poly(data: dict) -> list[Fraction]:
    """Dense coefficients (lowest first) of a serialized Laurent polynomial,
    shifted to lowest exponent 0."""
    terms = {int(e): Fraction(c) for e, c in data["coefficients"].items()}
    terms = {e: c for e, c in terms.items() if c != 0}
    _require(bool(terms), "zero polynomial")
    low = min(terms)
    out = [Fraction(0)] * (max(terms) - low + 1)
    for e, c in terms.items():
        out[e - low] = c
    return out


def _normalize(p: list[Fraction]) -> list[Fraction]:
    """Representative modulo units q * t^k: no zero ends, leading 1."""
    while p and p[-1] == 0:
        p = p[:-1]
    while p and p[0] == 0:
        p = p[1:]
    _require(bool(p), "zero polynomial")
    return [c / p[-1] for c in p]


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_info(V: list[list[int]], exit_code: int, stdout: str) -> None:
    _require(exit_code == 0, f"info exited {exit_code}")
    out = _load(stdout)
    delta = _poly(out["alexander_polynomial"])
    _require(_normalize(delta) == _normalize(alexander_coefficients(V)),
             "Alexander polynomial differs from det(tV - V^T)")
    _require(abs(sum(delta)) == 1, f"Delta(1) = {sum(delta)}, not ±1")
    _require(delta == delta[::-1] or delta == [-c for c in delta[::-1]],
             "Alexander polynomial is not symmetric")
    product = [Fraction(1)]
    for summand in out["module"]["summands"]:
        product = _mul(product, _poly(summand["annihilator"]))
    _require(_normalize(product) == _normalize(delta),
             "product of the annihilators differs from Delta")


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------


def _signature_grid(V: list[list[int]], cells: int) -> np.ndarray:
    """Signature of (1 - w)V + (1 - conj w)V^T at the cell midpoints of
    w = exp(2 pi i theta), theta in (0, 1/2)."""
    A = np.array(V, dtype=float)
    theta = (np.arange(cells) + 0.5) / (2 * cells)
    w = np.exp(2j * np.pi * theta)[:, None, None]
    M = (1 - w) * A + (1 - np.conj(w)) * A.T
    ev = np.linalg.eigvalsh(M)
    return (ev > 0).sum(axis=1) - (ev < 0).sum(axis=1)


def signature_variation(V: list[list[int]], cells: int = 2000) -> int:
    """Total variation of the sampled signature on (0, 1/2); 0 when no
    sample sees a jump."""
    sig = _signature_grid(V, cells)
    return int(np.abs(np.diff(sig)).sum() + abs(sig[0]))


def signature_integral(V: list[list[int]],
                       cells: int = SIGNATURE_GRID) -> tuple[float, float]:
    """(integral of the signature over the circle of length 1, error bound).

    The signature is symmetric under theta -> 1 - theta, so the integral is
    twice the midpoint sum over (0, 1/2).  A step function is integrated
    exactly except on the cells holding a jump; a jump J costs at most
    |J| * h there.  The jumps on (0, 1/2) sit at roots of the Alexander
    polynomial, at most n/2 of them counted with multiplicity, each of size
    at most twice its multiplicity, so the error is at most 2 * n * h; the
    bound doubles it for eigenvalue signs misread next to a root.
    """
    sig = _signature_grid(V, cells)
    h = 1.0 / (2 * cells)
    return 2.0 * float(sig.sum()) * h, 4.0 * len(V) * h


def check_signature(V: list[list[int]], exit_code: int, stdout: str) -> None:
    _require(exit_code == 0, f"signature exited {exit_code}")
    rho = _load(stdout)["rho0"]
    if "exact" in rho:
        lo = hi = Fraction(rho["exact"])
    else:
        lo, hi = (Fraction(x) for x in rho["interval"])
        _require(lo <= hi, "empty rho0 interval")
    value, err = signature_integral(V)
    mid, half = float(lo + hi) / 2, float(hi - lo) / 2
    _require(abs(mid - value) <= err + half,
             f"rho0 {float(mid):.6f} is off the numeric integral "
             f"{value:.6f} ± {err:.1e}")
