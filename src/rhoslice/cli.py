"""Command-line interface and document formats.

Knot documents are JSON (UTF-8, nested maps/arrays, rationals as strings
"p/q").  A document is either a bare Seifert matrix:

    {"schema": "rhoslice.knot/1", "seifert": [[0, 1], [2, 0]]}

or a pattern with infection data, optionally a whole family:

    {
      "schema": "rhoslice.knot/1",
      "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                  "curves": [{"name": "alpha", "class": ["1", "0"]},
                             {"name": "beta",  "class": ["0", "1"]}]},
      "companions": {"alpha": {"symbol": "rA"}, "beta": {"symbol": "rB"}},
      "knots": {"K1": {"companions": {...}}},
      "family": [{"knot": "K1", "multiplicity": 1}]
    }

Companion values are {"symbol": name}, {"rho0": "p/q"},
{"rho0_interval": ["lo", "hi"]} or {"seifert": [[...]]}.  Each is parsed
once, into a Rho0Value or a SeifertMatrix, whose signature integral only
`obstruct` computes.  Curve classes are rational strings or
serialized polynomials ({"coefficients": {"0": "1"}}), with exponents of at
most MAX_CURVE_EXPONENT in absolute value.  JSON integers are rationals;
JSON floats and booleans are refused, as 0.1 would be read in binary.

Subcommands: info, obstruct, signature.  Exit codes for obstruct: 0 when
OBSTRUCTED, 2 when INCONCLUSIVE, 1 on errors.  `obstruct --output
structured` prints a "rhoslice.report/5" document.  Per isotypic class at
complexity c = 1 only, `slot_types` lists each distinct expression `rho`
that a slot's copies add, with its types (copy-1 label and copy count)
and its total copies, and the class's `certificate`: y, alpha and beta
with y.s_e + alpha*lo_e - beta*hi_e > 0 on every expression e, which
proves that no count vector of the class vanishes, or null when the class
was enumerated.  A certified class evaluates no cells.  `witnesses` lists
every vanishing count vector of enumerated classes, and `cells` the cells
of enumerated classes of at most three count vectors; under `--cells` it
lists one cell per count vector of every class (its `counts`, indexed like
the expressions, a representative `support` and its expression), and a
certified class is enumerated too and must agree.  Then come the audit
trail and the notes.  `uniform_in_c` is true when the
complexity-free certificate carries the verdict to every complexity, and
`c_max` echoes `--cmax`, for which nothing is computed.  The text output
lists the same; its verdict line reads "(every c >= 1, mode)" under that
certificate and "(c = 1, mode)" otherwise.  A reader that closes the
output early (`rhoslice ... | head -1`) ends the command with exit code 1
and no traceback.  The
environment variable RHOSLICE_PRECISION bounds the width of certified
intervals (default 1/1000000).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .blanchfield import blanchfield_form
from .obstruction import (
    Companion,
    FamilyMember,
    FamilySpec,
    InfectedKnot,
    ObstructionError,
    verify_obstructed,
)
from .polyalg import LaurentPoly, PolyalgError
from .seifert import PatternKnot, SeifertError, SeifertMatrix, alexander_polynomial, metabolizer_search
from .signatures import Rho0Value, SignatureError, precision_budget, rho0_from_signature, signature_function

SCHEMA = "rhoslice.knot/1"
# Largest |exponent| in a curve class: reducing a class modulo its
# summand's annihilator costs about the square of its exponents.
MAX_CURVE_EXPONENT = 1000


class DocumentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


# A parsed companion: its signature integral or symbol, or the Seifert
# matrix whose integral only `obstruct` computes.
CompanionValue = Rho0Value | SeifertMatrix


class KnotDocument(NamedTuple):
    """Parsed and validated knot description."""

    seifert: SeifertMatrix | None = None
    pattern: PatternKnot | None = None
    companions: tuple[tuple[str, CompanionValue], ...] = ()
    knots: tuple[tuple[str, "KnotEntry"], ...] = ()
    family: tuple[tuple[str, int], ...] = ()
    assembly: str = "difference-with-reverse"


class KnotEntry(NamedTuple):
    pattern: PatternKnot | None
    companions: tuple[tuple[str, CompanionValue], ...]


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise DocumentError(f"{where}: {msg}")


def _parse_matrix(data, where: str) -> SeifertMatrix:
    _require(isinstance(data, list) and all(isinstance(r, list) for r in data),
             where, "expected a list of integer rows")
    for r in data:
        for x in r:
            _require(isinstance(x, int) and not isinstance(x, bool),
                     where, f"non-integer entry {x!r}")
    try:
        return SeifertMatrix(data)
    except SeifertError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _parse_rational(value, where: str) -> Fraction:
    _require(not isinstance(value, (bool, float)), where,
             f"{value!r} is not exact; write a rational as a \"p/q\" string")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise DocumentError(f"{where}: bad rational {value!r}") from exc


def _parse_poly(data, where: str) -> LaurentPoly:
    if not isinstance(data, dict):
        return LaurentPoly.constant(_parse_rational(data, where), "s")
    coeffs = data.get("coefficients", {})
    _require(isinstance(coeffs, dict), where, f"bad polynomial {data!r}: "
             "coefficients must map exponents to rationals")
    try:
        terms = {int(e): _parse_rational(c, f"exponent {e}")
                 for e, c in coeffs.items()}
    except ValueError as exc:
        raise DocumentError(f"{where}: bad polynomial {data!r}: {exc}") from exc
    top = max(map(abs, terms), default=0)
    _require(top <= MAX_CURVE_EXPONENT, where,
             f"exponent {top} exceeds MAX_CURVE_EXPONENT = {MAX_CURVE_EXPONENT}")
    return LaurentPoly(terms, "s")


def _parse_pattern(data, where: str) -> PatternKnot:
    _require(isinstance(data, dict), where, "expected an object")
    _require("seifert" in data, where, "missing 'seifert'")
    seifert = _parse_matrix(data["seifert"], f"{where}.seifert")
    curves_raw = data.get("curves", [])
    _require(isinstance(curves_raw, list), f"{where}.curves", "expected a list")
    curves = []
    for i, cv in enumerate(curves_raw):
        w = f"{where}.curves[{i}]"
        _require(isinstance(cv, dict) and "name" in cv and "class" in cv,
                 w, "expected {name, class}")
        _require(isinstance(cv["name"], str), w, "name must be a string")
        vec = cv["class"]
        _require(isinstance(vec, list) and len(vec) == seifert.dim,
                 w, f"class must be a vector of length {seifert.dim}")
        curves.append((cv["name"], tuple(_parse_poly(x, w) for x in vec)))
    name = data.get("name", "pattern")
    _require(isinstance(name, str), f"{where}.name", "expected a string")
    try:
        return PatternKnot(seifert, tuple(curves), name=name)
    except SeifertError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


_COMPANION_KEYS = {"symbol", "rho0", "rho0_interval", "seifert"}


def _parse_companion(data, where: str) -> CompanionValue:
    _require(isinstance(data, dict), where, "expected an object")
    keys = set(data)
    _require(len(keys) == 1 and keys <= _COMPANION_KEYS, where,
             f"expected exactly one of {sorted(_COMPANION_KEYS)}")
    if "symbol" in data:
        _require(isinstance(data["symbol"], str), where,
                 "symbol must be a string")
        return Rho0Value.of_symbol(data["symbol"])
    if "rho0" in data:
        return Rho0Value.of_exact(_parse_rational(data["rho0"], where))
    if "rho0_interval" in data:
        iv = data["rho0_interval"]
        _require(isinstance(iv, list) and len(iv) == 2, where,
                 "interval must be [lo, hi]")
        lo, hi = (_parse_rational(x, where) for x in iv)
        _require(lo <= hi, where, "interval lower end exceeds upper end")
        return Rho0Value.of_interval(lo, hi)
    return _parse_matrix(data["seifert"], where)


def parse_document(data: dict) -> KnotDocument:
    _require(isinstance(data, dict), "document", "expected a JSON object")
    schema = data.get("schema", SCHEMA)
    _require(schema == SCHEMA, "schema", f"unsupported schema {schema!r}")
    known = {"schema", "seifert", "pattern", "companions", "knots", "family",
             "assembly"}
    for key in data:
        _require(key in known, key, "unknown field")
    seifert = pattern = None
    if "seifert" in data:
        seifert = _parse_matrix(data["seifert"], "seifert")
    if "pattern" in data:
        pattern = _parse_pattern(data["pattern"], "pattern")
    _require(seifert is not None or pattern is not None,
             "document", "needs 'seifert' or 'pattern'")
    _require(not (seifert is not None and pattern is not None),
             "document", "'seifert' and 'pattern' are mutually exclusive")

    curve_names = set(pattern.curve_names()) if pattern else set()

    def parse_companions(raw, where, names) -> tuple[tuple[str, CompanionValue], ...]:
        _require(isinstance(raw, dict), where, "expected an object")
        out = []
        for cname in sorted(raw):
            _require(cname in names, f"{where}.{cname}",
                     f"no such curve; pattern has {sorted(names)}")
            out.append((cname, _parse_companion(raw[cname],
                                                f"{where}.{cname}")))
        return tuple(out)

    companions = parse_companions(data.get("companions", {}), "companions",
                                  curve_names) if pattern else ()

    knots = []
    raw_knots = data.get("knots", {})
    _require(isinstance(raw_knots, dict), "knots", "expected an object")
    for name in sorted(raw_knots):
        entry_raw = raw_knots[name]
        w = f"knots.{name}"
        _require(isinstance(entry_raw, dict), w, "expected an object")
        entry_pattern = (_parse_pattern(entry_raw["pattern"], f"{w}.pattern")
                         if "pattern" in entry_raw else None)
        local_names = (set(entry_pattern.curve_names()) if entry_pattern
                       else curve_names)
        entry_comp = parse_companions(entry_raw.get("companions", {}),
                                      f"{w}.companions", local_names)
        knots.append((name, KnotEntry(entry_pattern, entry_comp)))

    family = []
    raw_family = data.get("family", [])
    _require(isinstance(raw_family, list), "family", "expected a list")
    knot_names = {name for name, _ in knots}
    listed: dict[str, int] = {}
    for i, m in enumerate(raw_family):
        w = f"family[{i}]"
        _require(isinstance(m, dict) and "knot" in m and "multiplicity" in m,
                 w, "expected {knot, multiplicity}")
        _require(isinstance(m["knot"], str), w, "knot must be a string")
        _require(m["knot"] in knot_names, w,
                 f"unresolved knot name {m['knot']!r}")
        if m["knot"] in listed:
            raise DocumentError(f"{w}: knot {m['knot']!r} is already listed "
                                f"at family[{listed[m['knot']]}]")
        listed[m["knot"]] = i
        mult = m["multiplicity"]
        _require(isinstance(mult, int) and not isinstance(mult, bool)
                 and mult != 0, w,
                 "multiplicity must be a nonzero integer")
        family.append((m["knot"], mult))
    _require(not family or pattern is not None, "family",
             "family documents need a default pattern")

    assembly = data.get("assembly", "difference-with-reverse")
    _require(assembly in ("difference-with-reverse", "bare"), "assembly",
             "must be 'difference-with-reverse' or 'bare'")

    return KnotDocument(seifert=seifert, pattern=pattern,
                        companions=companions, knots=tuple(knots),
                        family=tuple(family), assembly=assembly)


def load_document(path: str) -> KnotDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_document(data)


def _build_companion(name: str, value: CompanionValue) -> Companion:
    """The companion on curve `name`; a symbol names its companion, and a
    Seifert matrix has its signature integral computed here."""
    if isinstance(value, SeifertMatrix):
        return Companion.from_seifert(name, value)
    return Companion(value.symbol if value.kind == "symbol" else name, value)


def family_spec(doc: KnotDocument) -> FamilySpec:
    if doc.pattern is None:
        raise DocumentError("obstruction needs a pattern document")
    with_reverse = doc.assembly != "bare"

    def infected(pattern: PatternKnot, companions) -> InfectedKnot:
        comp_map = {cname: _build_companion(cname, value)
                    for cname, value in companions}
        return InfectedKnot.build(pattern, comp_map)

    if doc.family:
        entries = dict(doc.knots)
        members = []
        names = []
        for knot_name, mult in doc.family:
            entry = entries[knot_name]
            pattern = entry.pattern or doc.pattern
            members.append(FamilyMember(infected(pattern, entry.companions),
                                        mult, with_reverse=with_reverse))
            names.append(knot_name)
        return FamilySpec(tuple(members), tuple(names))
    member = FamilyMember(infected(doc.pattern, doc.companions), 1,
                          with_reverse=with_reverse)
    return FamilySpec((member,), ("K",))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _doc_matrix(doc: KnotDocument) -> SeifertMatrix:
    return doc.seifert if doc.seifert is not None else doc.pattern.seifert


def _print_json(obj) -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2)` and a newline to
    stdout, in batches of encoder chunks; the whole string never exists."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def cmd_info(args) -> int:
    doc = load_document(args.file)
    target = doc.pattern if doc.pattern is not None else _doc_matrix(doc)
    V = _doc_matrix(doc)
    delta = alexander_polynomial(V)
    form, _dec = blanchfield_form(target)
    module = form.module
    metab = metabolizer_search(V) if V.dim == 2 else None

    if args.output == "structured":
        out = {
            "schema": "rhoslice.info/1",
            "alexander_polynomial": delta.to_json(),
            **form.to_json(),
            "metabolizer": list(metab) if metab else None,
        }
        _print_json(out)
        return 0
    print(f"Alexander polynomial: {delta}")
    print(f"Module: {module}")
    if module.summands:
        print("Generators: " + ", ".join(s.label for s in module.summands))
    print("Linking form Gram matrix:")
    for row in form.gram:
        print("  [" + ", ".join(str(z) for z in row) + "]")
    if V.dim == 2:
        print(f"Genus-one metabolizer: {metab if metab else 'none'}")
    return 0


def cmd_obstruct(args) -> int:
    doc = load_document(args.file)
    spec = family_spec(doc)
    report = verify_obstructed(spec, args.cmax, mode=args.mode,
                               cells=args.cells)
    if args.output == "structured":
        _print_json(report.to_json())
    else:
        scope = "every c >= 1" if report.uniform_in_c else "c = 1"
        print(f"verdict: {report.verdict} ({scope}, {report.mode})")
        if report.uniform_in_c:
            print("uniform-in-c certificate: every cell holds at every "
                  "complexity c >= 1")
        print("distinct expressions (copy-1 label x copies of each type):")
        for table in report.slot_types:
            for i, (types, rho) in enumerate(zip(table.types, table.rho), 1):
                listed = ", ".join(f"{label} x{n}" for label, n in types)
                print(f"  c={table.complexity} class=({table.prime}) "
                      f"expression {i}: {{{listed}}} rho = {rho}")
        print("class decisions (a certificate y, alpha, beta has "
              "y.s_e + alpha*lo_e - beta*hi_e > 0 on every expression e):")
        for table in report.slot_types:
            print(f"  c={table.complexity} class=({table.prime}): "
                  + (f"certificate {table.certificate}" if table.certificate
                     else "enumerated"))
        if args.cells or report.cells:
            print(f"{len(report.cells)} count-vector cells at c=1:")
        for cell in report.cells:
            status = "nonzero" if cell.nonvanishing else "VANISHING"
            support = ", ".join(cell.support)
            counts = ", ".join(map(str, cell.counts))
            print(f"  c={cell.complexity} class=({cell.prime}) "
                  f"counts=({counts}) support={{{support}}} rho = {cell.rho} "
                  f"[{status}]")
        if report.witnesses:
            w = report.witnesses[0]
            print(f"witness: c={w.complexity} support={list(w.support)} "
                  f"rho = {w.rho}")
        print("audit trail:")
        for line in report.audit:
            print(f"  {line}")
        for line in report.notes:
            print(f"note: {line}")
    return 0 if report.obstructed else 2


def cmd_signature(args) -> int:
    doc = load_document(args.file)
    V = _doc_matrix(doc)
    sf = signature_function(V)
    rho = rho0_from_signature(sf, precision_budget())
    if args.emit == "jumps":
        out = {
            "schema": "rhoslice.signature/1",
            **sf.to_json(),
            "rho0": rho.to_json(),
        }
        _print_json(out)
        return 0
    print("arc values on (0, 1/2] by increasing angle:")
    labels = []
    prev = "0"
    for r in sf.roots:
        here = str(r.angle) if r.angle is not None else \
            f"angle(x in [{r.x_interval[0]}, {r.x_interval[1]}])"
        labels.append((prev, here))
        prev = here
    labels.append((prev, "1/2"))
    for (lo, hi), v in zip(labels, sf.arc_values):
        print(f"  ({lo}, {hi}): {v}")
    print(f"signature integral: {rho}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhoslice",
        description="Exact sliceness obstructions for satellite knots")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="module, linking form, metabolizer")
    p_info.add_argument("file")
    p_info.add_argument("--output", choices=("text", "structured"),
                        default="text")
    p_info.set_defaults(func=cmd_info)

    p_ob = sub.add_parser("obstruct", help="run the obstruction sweep")
    p_ob.add_argument("file")
    p_ob.add_argument("--cmax", type=int, default=5,
                      help="echoed as c_max in the report; nothing is "
                      "computed for it (default 5)")
    p_ob.add_argument("--mode", choices=("symbolic", "numeric"),
                      default="symbolic")
    p_ob.add_argument("--output", choices=("text", "structured"),
                      default="text")
    p_ob.add_argument("--cells", action="store_true",
                      help="list one cell per count vector of every class; "
                      "a certified class is then enumerated too")
    p_ob.set_defaults(func=cmd_obstruct)

    p_sig = sub.add_parser("signature", help="signature jumps and integral")
    p_sig.add_argument("file")
    p_sig.add_argument("--emit", choices=("jumps", "table"), default="jumps")
    p_sig.set_defaults(func=cmd_signature)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact coefficients outgrow the interpreter's int <-> str digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DocumentError, ObstructionError, SeifertError, SignatureError,
            PolyalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
