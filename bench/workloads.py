"""Seeded input documents for the benchmark's workloads.

Every workload is a fixed list of operations (one *round*).  The seed
changes the documents but not the shape of the round: the same number of
slots per class, the same complexities and the same invariants in every
seed, so that the cost of a round, and hence every end-to-end figure, does
not depend on which seed a run is given.  Each operation carries the
facts its checks need (`expect`), derived here from how the document was
built and never from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import signature_variation

SCHEMA = "rhoslice.knot/1"
CURVES = [{"name": "alpha", "class": ["1", "0"]},
          {"name": "beta", "class": ["0", "1"]}]
TREFOIL = {"right": [[-1, 1], [0, -1]], "left": [[1, -1], [0, 1]]}
# The closed-form signature integral of the right-handed trefoil.
RHO_TREFOIL_RIGHT = Fraction(-4, 3)

# sweep-wide: 9_46 families with members of 1, 2 and 3 copies, as in the
# (1,-2,3) family; six copies give 12 slots in each of the two isotypic
# classes, 2 * (2^12 - 1) = 8190 cells per complexity.  The seed picks the
# order and signs of the members and the companions.
WIDE_MEMBER_COPIES = (1, 2, 3)
WIDE_CMAX = 2
# The member whose two curves share one companion in the INCONCLUSIVE
# family: its copies cancel each other in 10 supports per class.
WIDE_SHARED_COPIES = 2
# Companion values B^j in the numeric family; B exceeds the slots per class.
WIDE_BASE = 2 * sum(WIDE_MEMBER_COPIES) + 1
# sweep-deep: one single-knot sweep per pattern [[0, n], [n+1, 0]].
DEEP_NS = (1, 2, 3)
DEEP_CMAX = 12
# knot-invariants: the base matrices are drawn once from this fixed stream;
# the run's seed then changes each one by a random unimodular congruence,
# which keeps its invariants (and the work done on it) and changes its
# entries.
INVARIANTS_POOL_SEED = 2202
INFO_GENERA = (2, 2, 2, 3, 3, 3)
SIGNATURE_GENERA = (2, 3, 4, 5)

WORKLOADS = ("sweep-wide", "sweep-deep", "knot-invariants")


@dataclass(frozen=True)
class Operation:
    """One CLI call: `rhoslice <command> <document> <options>`."""

    label: str
    command: str
    options: tuple[str, ...]
    document: dict
    expect: dict = field(default_factory=dict)


def round_for(workload: str, seed: int) -> list[Operation]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    ops = {"sweep-wide": _sweep_wide,
           "sweep-deep": _sweep_deep,
           "knot-invariants": _knot_invariants}[workload](rng)
    rng.shuffle(ops)
    return ops


def smoke_round() -> list[Operation]:
    """One small input per workload, with the same checks."""
    rng = random.Random("smoke")
    shared = _family(rng, [1, -1], "shared")
    numeric = _family(rng, [1, 1], "numeric")
    deep = _deep_op(rng, 2, cmax=3)
    V = _conjugate(rng, _info_pool()[0])
    W = _conjugate(rng, dict(_signature_pool())["g2-irrational"])
    return [
        _obstruct_op("smoke-shared", "shared", shared, cmax=1),
        _obstruct_op("smoke-numeric", "numeric", numeric, cmax=1),
        deep,
        Operation("smoke-info", "info", ("--output", "structured"),
                  _bare(V), {"seifert": V}),
        Operation("smoke-signature", "signature", (), _bare(W), {"seifert": W}),
    ]


# ---------------------------------------------------------------------------
# sweep-wide
# ---------------------------------------------------------------------------


def _sweep_wide(rng: random.Random) -> list[Operation]:
    return [_obstruct_op(f"wide-{kind}", kind,
                         _family(rng, _multiplicities(rng), kind), WIDE_CMAX)
            for kind in ("distinct", "shared", "numeric")]


def _multiplicities(rng: random.Random) -> list[int]:
    sizes = list(WIDE_MEMBER_COPIES)
    rng.shuffle(sizes)
    return [s * rng.choice((1, -1)) for s in sizes]


def _family(rng: random.Random, mults: list[int], kind: str) -> dict:
    """A 9_46 family document.

    kind "distinct": every (member, curve) has its own symbol.
    kind "shared": as distinct, but the member of WIDE_SHARED_COPIES copies
        (else the first) ties one symbol through both curves, so its slots
        cancel: INCONCLUSIVE.
    kind "numeric": exact companions B^j with distinct j, so no signed
        combination with coefficients below B vanishes: OBSTRUCTED.
    """
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
    exponents = list(range(-len(mults), len(mults)))
    rng.shuffle(exponents)
    sizes = [abs(m) for m in mults]
    shared = (sizes.index(WIDE_SHARED_COPIES)
              if WIDE_SHARED_COPIES in sizes else 0)
    knots = {}
    for i in range(len(mults)):
        comps = {}
        for j, curve in enumerate(("alpha", "beta")):
            if kind == "numeric":
                value = Fraction(WIDE_BASE) ** exponents[2 * i + j]
                comps[curve] = {"rho0": str(value)}
            elif kind == "shared" and i == shared:
                comps[curve] = {"symbol": f"{tag}_{i}"}
            else:
                comps[curve] = {"symbol": f"{tag}_{i}{curve[0]}"}
        knots[f"K{i + 1}"] = {"companions": comps}
    return {
        "schema": SCHEMA,
        "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                    "curves": CURVES},
        "knots": knots,
        "family": [{"knot": f"K{i + 1}", "multiplicity": m}
                   for i, m in enumerate(mults)],
    }


def _obstruct_op(label: str, kind: str, document: dict,
                 cmax: int) -> Operation:
    options = ("--cmax", str(cmax), "--output", "structured")
    if kind == "numeric":
        options += ("--mode", "numeric")
    verdict = "INCONCLUSIVE" if kind == "shared" else "OBSTRUCTED"
    return Operation(label, "obstruct", options, document,
                     {"verdict": verdict, "cmax": cmax,
                      "mode": "numeric" if kind == "numeric" else "symbolic"})


# ---------------------------------------------------------------------------
# sweep-deep
# ---------------------------------------------------------------------------


def _sweep_deep(rng: random.Random) -> list[Operation]:
    return [_deep_op(rng, n, DEEP_CMAX) for n in DEEP_NS]


def _deep_op(rng: random.Random, n: int, cmax: int) -> Operation:
    """Pattern [[0, n], [n+1, 0]] (n = 1 is 9_46) with one symbolic and one
    trefoil companion; its constants are signed multiples of rho(T(2,3))."""
    symbol_curve, trefoil_curve = rng.sample(["alpha", "beta"], 2)
    hand = rng.choice(("right", "left"))
    doc = {
        "schema": SCHEMA,
        "pattern": {"name": f"P{n}", "seifert": [[0, n], [n + 1, 0]],
                    "curves": CURVES},
        "companions": {
            symbol_curve: {"symbol": f"r{rng.randrange(10 ** 6)}"},
            trefoil_curve: {"seifert": TREFOIL[hand]},
        },
    }
    return Operation(f"deep-n{n}", "obstruct",
                     ("--cmax", str(cmax), "--output", "structured"), doc,
                     {"verdict": "OBSTRUCTED", "cmax": cmax, "mode": "symbolic",
                      "uniform_in_c": True,
                      "constant_unit": RHO_TREFOIL_RIGHT})


# ---------------------------------------------------------------------------
# knot-invariants
# ---------------------------------------------------------------------------


def _knot_invariants(rng: random.Random) -> list[Operation]:
    ops = []
    for i, V in enumerate(_info_pool()):
        W = _conjugate(rng, V)
        ops.append(Operation(f"info-g{len(V) // 2}-{i}", "info",
                             ("--output", "structured"), _bare(W),
                             {"seifert": W}))
    for label, V in _signature_pool():
        W = _conjugate(rng, V)
        ops.append(Operation(f"signature-{label}", "signature", (), _bare(W),
                             {"seifert": W}))
    return ops


def _info_pool() -> list[list[list[int]]]:
    pool = random.Random(INVARIANTS_POOL_SEED)
    return [_random_seifert(pool, g) for g in INFO_GENERA]


def _signature_pool() -> list[tuple[str, list[list[int]]]]:
    """Per genus: one matrix whose signature jumps at irrational angles
    (certified interval) and one trefoil sum whose only jumps sit at the
    exact angles 1/6, 5/6 (exact value)."""
    out = []
    for g in SIGNATURE_GENERA:
        pool = random.Random(INVARIANTS_POOL_SEED + g)
        V = _random_seifert(pool, g)
        while signature_variation(V) == 0:
            V = _random_seifert(pool, g)
        out.append((f"g{g}-irrational", V))
        W = _random_seifert(pool, g - 1)
        while signature_variation(W) != 0:
            W = _random_seifert(pool, g - 1)
        hand = "right" if g % 2 else "left"
        out.append((f"g{g}-trefoil", _block_sum(TREFOIL[hand], W)))
    return out


def _random_seifert(rng: random.Random, genus: int,
                    spread: int = 2) -> list[list[int]]:
    """Standard block form with det(V - V^T) = 1 plus a random symmetric
    integer matrix, which leaves V - V^T unchanged."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for g in range(genus):
        rows[2 * g][2 * g + 1] = 1
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-spread, spread)
            rows[i][j] += s
            if j > i:
                rows[j][i] += s
    return rows


def _block_sum(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n, m = len(A), len(B)
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        rows[i][:n] = A[i]
    for i in range(m):
        rows[n + i][n:] = B[i]
    return rows


def _conjugate(rng: random.Random, V: list[list[int]]) -> list[list[int]]:
    """P V P^T for a random unimodular P (a product of elementary row
    operations r_i += ±r_j).  Congruent Seifert matrices have the same
    Alexander polynomial, module and signature function."""
    n = len(V)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    PV = [[sum(P[i][k] * V[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(PV[i][k] * P[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _bare(V: list[list[int]]) -> dict:
    return {"schema": SCHEMA, "seifert": V}
