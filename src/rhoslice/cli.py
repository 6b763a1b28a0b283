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
once, into a RhoExpr or a SeifertMatrix, whose signature integral only
`obstruct` computes.  Curve classes are rational strings or
serialized polynomials ({"coefficients": {"0": "1"}}), whose keys are ASCII
integers naming distinct exponents of at most MAX_CURVE_EXPONENT in
absolute value.  JSON integers are rationals; JSON floats and booleans are
refused, as 0.1 would be read in binary.  No object may repeat a key, and
no number may exceed the interpreter's default limit of 4300 digits.

Subcommands (options in the table COMMANDS): info, obstruct, signature.
Exit codes for obstruct: 0 when OBSTRUCTED, 2 when INCONCLUSIVE, 1 on
errors, a refused command line included.  `obstruct --output
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

The package registers its layers lazily (see `rhoslice/__init__`), and
this module reads their names at call time (`obstruction.verify_obstructed`)
and never at import, so a command compiles only the layers it calls into:
`signature` polyalg, factor, linalg, seifert and signatures, `info`
polyalg, factor, linalg, seifert, almodule, blanchfield (and submodule on
a module that is not cyclic), and `obstruct` every layer but submodule and
signatures, which is compiled only for a companion given by its Seifert
matrix.  `main` catches only `RhosliceError`, so an error loads no layer
that did not run.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from . import RhosliceError, blanchfield, obstruction, polyalg, seifert, signatures

SCHEMA = "rhoslice.knot/1"
# Largest |exponent| in a curve class: reducing a class modulo its
# summand's annihilator costs about the square of its exponents.
MAX_CURVE_EXPONENT = 1000
# Longest key or rational an error message quotes; a longer one is named by
# its length.  No number in a document may have more than DIGIT_LIMIT digits.
MAX_QUOTED = 80
DIGIT_LIMIT = sys.int_info.default_max_str_digits


class DocumentError(RhosliceError):
    pass


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


# A parsed companion: its signature integral or symbol, or the Seifert
# matrix whose integral only `obstruct` computes.  A string, read only as an
# annotation: no layer is loaded to define it.
CompanionValue = "seifert.RhoExpr | seifert.SeifertMatrix"


class KnotDocument(NamedTuple):
    """A parsed knot document; `seifert` is its matrix or its pattern's."""

    seifert: seifert.SeifertMatrix
    pattern: seifert.PatternKnot | None
    companions: tuple[tuple[str, CompanionValue], ...]
    knots: tuple[tuple[str, "KnotEntry"], ...]
    family: tuple[tuple[str, int], ...]
    assembly: str


class KnotEntry(NamedTuple):
    pattern: seifert.PatternKnot | None
    companions: tuple[tuple[str, CompanionValue], ...]


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise DocumentError(f"{where}: {msg}")


def _parse_matrix(data, where: str) -> seifert.SeifertMatrix:
    _require(isinstance(data, list) and all(isinstance(r, list) for r in data),
             where, "expected a list of integer rows")
    for r in data:
        for x in r:
            _require(type(x) is int, where, f"non-integer entry {x!r}")
    try:
        return seifert.SeifertMatrix(data)
    except seifert.SeifertError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _quoted(value) -> str:
    """repr(value), or the length of its text past MAX_QUOTED characters."""
    size = len(str(value))
    return repr(value) if size <= MAX_QUOTED else f"of {size} characters"


def _parse_rational(value, where: str) -> Fraction:
    _require(not isinstance(value, (bool, float)), where,
             f"{value!r} is not exact; write a rational as a \"p/q\" string")
    try:
        return polyalg.as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        over = (f", over the {DIGIT_LIMIT}-digit limit"
                if len(str(value)) > DIGIT_LIMIT else "")
        raise DocumentError(
            f"{where}: bad rational {_quoted(value)}{over}") from exc


def _parse_poly(data, where: str) -> polyalg.LaurentPoly:
    if not isinstance(data, dict):
        return polyalg.LaurentPoly.constant(_parse_rational(data, where), "s")
    coeffs = data.get("coefficients", {})
    _require(isinstance(coeffs, dict), where, "bad polynomial: "
             "coefficients must map exponents to rationals")
    try:
        for e in coeffs:
            if not re.fullmatch("[+-]?[0-9]+", e):
                raise ValueError(f"exponent {_quoted(e)} is not an integer")
            if len(e.lstrip("+-")) > DIGIT_LIMIT:
                raise ValueError(f"exponent {_quoted(e)}, over the "
                                 f"{DIGIT_LIMIT}-digit limit")
        terms = {int(e): _parse_rational(c, f"exponent {_quoted(int(e))}")
                 for e, c in coeffs.items()}
        if len(terms) < len(coeffs):
            raise ValueError("two keys name one exponent")
    except ValueError as exc:
        raise DocumentError(f"{where}: bad polynomial: {exc}") from exc
    top = max(map(abs, terms), default=0)
    _require(top <= MAX_CURVE_EXPONENT, where,
             f"exponent {_quoted(top)} exceeds MAX_CURVE_EXPONENT = "
             f"{MAX_CURVE_EXPONENT}")
    return polyalg.LaurentPoly(terms, "s")


def _parse_pattern(data, where: str) -> seifert.PatternKnot:
    _require(isinstance(data, dict), where, "expected an object")
    _require("seifert" in data, where, "missing 'seifert'")
    matrix = _parse_matrix(data["seifert"], f"{where}.seifert")
    curves_raw = data.get("curves", [])
    _require(isinstance(curves_raw, list), f"{where}.curves", "expected a list")
    curves = []
    for i, cv in enumerate(curves_raw):
        w = f"{where}.curves[{i}]"
        _require(isinstance(cv, dict) and "name" in cv and "class" in cv,
                 w, "expected {name, class}")
        _require(isinstance(cv["name"], str), w, "name must be a string")
        vec = cv["class"]
        _require(isinstance(vec, list) and len(vec) == matrix.dim,
                 w, f"class must be a vector of length {matrix.dim}")
        curves.append((cv["name"], tuple(_parse_poly(x, w) for x in vec)))
    name = data.get("name", "pattern")
    _require(isinstance(name, str), f"{where}.name", "expected a string")
    try:
        return seifert.PatternKnot(matrix, tuple(curves), name=name)
    except seifert.SeifertError as exc:
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
        return seifert.RhoExpr(coeffs=((data["symbol"], 1),))
    if "rho0" in data:
        v = _parse_rational(data["rho0"], where)
        return seifert.RhoExpr(v, v)
    if "rho0_interval" in data:
        iv = data["rho0_interval"]
        _require(isinstance(iv, list) and len(iv) == 2, where,
                 "interval must be [lo, hi]")
        lo, hi = (_parse_rational(x, where) for x in iv)
        _require(lo <= hi, where, "interval lower end exceeds upper end")
        return seifert.RhoExpr(lo, hi)
    return _parse_matrix(data["seifert"], where)


def parse_document(data: dict) -> KnotDocument:
    _require(isinstance(data, dict), "document", "expected a JSON object")
    schema = data.get("schema", SCHEMA)
    _require(schema == SCHEMA, "schema", f"unsupported schema {schema!r}")
    known = {"schema", "seifert", "pattern", "companions", "knots", "family",
             "assembly"}
    for key in data:
        _require(key in known, key, "unknown field")
    matrix = pattern = None
    if "seifert" in data:
        matrix = _parse_matrix(data["seifert"], "seifert")
    if "pattern" in data:
        pattern = _parse_pattern(data["pattern"], "pattern")
    _require(matrix is not None or pattern is not None,
             "document", "needs 'seifert' or 'pattern'")
    _require(not (matrix is not None and pattern is not None),
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

    knots = {}
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
        knots[name] = KnotEntry(entry_pattern, entry_comp)

    family = []
    raw_family = data.get("family", [])
    _require(isinstance(raw_family, list), "family", "expected a list")
    listed: dict[str, int] = {}
    for i, m in enumerate(raw_family):
        w = f"family[{i}]"
        _require(isinstance(m, dict) and "knot" in m and "multiplicity" in m,
                 w, "expected {knot, multiplicity}")
        _require(isinstance(m["knot"], str), w, "knot must be a string")
        _require(m["knot"] in knots, w,
                 f"unresolved knot name {m['knot']!r}")
        _require(m["knot"] not in listed, w, f"knot {m['knot']!r} is already "
                 f"listed at family[{listed.get(m['knot'])}]")
        listed[m["knot"]] = i
        mult = m["multiplicity"]
        _require(type(mult) is int and mult != 0, w,
                 "multiplicity must be a nonzero integer")
        family.append((m["knot"], mult))
    _require(not family or pattern is not None, "family",
             "family documents need a default pattern")

    assembly = data.get("assembly", "difference-with-reverse")
    _require(assembly in ("difference-with-reverse", "bare"), "assembly",
             "must be 'difference-with-reverse' or 'bare'")

    return KnotDocument(pattern.seifert if pattern else matrix, pattern,
                        companions, tuple(knots.items()),
                        tuple(family), assembly)


def _unique_keys(pairs) -> dict:
    """A JSON object, refused if it repeats a key (`json` keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {_quoted(key)} is repeated")
        obj[key] = value
    return obj


def _parse_int(text: str) -> int:
    """A JSON integer, refused past DIGIT_LIMIT digits before int() reads it."""
    digits = len(text) - text.startswith("-")
    if digits > DIGIT_LIMIT:
        raise ValueError(f"a number exceeds the document's {DIGIT_LIMIT}-"
                         f"digit limit: the value has {digits} digits")
    return int(text)


def load_document(path: str) -> KnotDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys,
                             parse_int=_parse_int)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:
        # a repeated key, an integer beyond the digit limit, or bytes that
        # are not UTF-8
        raise DocumentError(f"{path}: {exc}") from exc
    return parse_document(data)


def family_spec(doc: KnotDocument) -> obstruction.FamilySpec:
    """The family of a pattern document, its one knot named K when it lists
    no family; `knots` without a family and top-level `companions` beside
    one are refused, not dropped.  The signature integral of each matrix
    companion is computed first, once per knot, so `signatures` is compiled
    before the obstruction engine, on the smaller heap of the parse."""
    if doc.pattern is None:
        raise DocumentError("obstruction needs a pattern document")
    _require(doc.family or not doc.knots, "knots",
             "a document without a family decides no listed knot")
    _require(not (doc.family and doc.companions), "companions",
             "a family document takes each knot's companions from 'knots'")
    entries = (dict(doc.knots) if doc.family
               else {"K": KnotEntry(doc.pattern, doc.companions)})
    family = doc.family or (("K", 1),)
    values = {name: {cname: signatures.rho0(value)
                     if isinstance(value, seifert.SeifertMatrix) else value
                     for cname, value in entries[name].companions}
              for name, _ in family}
    members = []
    for name, mult in family:
        knot = obstruction.InfectedKnot.build(
            entries[name].pattern or doc.pattern,
            # a symbol names its companion, another value its curve
            {cname: obstruction.Companion(
                value.coeffs[0][0] if value.coeffs else cname, value)
             for cname, value in values[name].items()})
        members.append(obstruction.FamilyMember(
            knot, mult, with_reverse=doc.assembly != "bare"))
    return obstruction.FamilySpec(tuple(members),
                                  tuple(name for name, _ in family))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _print_json(obj) -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2)` and a newline to
    stdout, in batches of encoder chunks; the whole string never exists."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def cmd_info(doc: KnotDocument, args) -> int:
    V = doc.seifert
    delta = seifert.alexander_polynomial(V)
    form, _dec = blanchfield.blanchfield_form(doc.pattern or V)
    module = form.module
    metab = seifert.metabolizer_search(V) if V.dim == 2 else None

    if args.output == "structured":
        _print_json({
            "schema": "rhoslice.info/1",
            "alexander_polynomial": delta.to_json(),
            **form.to_json(),
            "metabolizer": list(metab) if metab else None,
        })
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


def cmd_obstruct(doc: KnotDocument, args) -> int:
    spec = family_spec(doc)
    report = obstruction.verify_obstructed(spec, args.cmax, mode=args.mode,
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


def cmd_signature(doc: KnotDocument, args) -> int:
    V = doc.seifert
    sf = signatures.signature_function(V)
    rho = signatures.rho0_from_signature(sf)
    if args.emit == "jumps":
        lo, hi = rho.const_lo, rho.const_hi
        _print_json({
            "schema": "rhoslice.signature/1",
            **sf.to_json(),
            "rho0": ({"exact": str(lo)} if lo == hi
                     else {"interval": [str(lo), str(hi)]}),
        })
        return 0
    print("arc values on (0, 1/2] by increasing angle:")
    ends = ["0", *(str(r.angle) if r.angle is not None else
                   f"angle(x in [{r.x_interval[0]}, {r.x_interval[1]}])"
                   for r in sf.roots), "1/2"]
    for lo, hi, v in zip(ends, ends[1:], sf.arc_values):
        print(f"  ({lo}, {hi}): {v}")
    print(f"signature integral: {rho}")
    return 0


# command: (function, summary, {option: (default, the pattern its value
# must match, "" for a flag)}); `parse_args` reads it, `usage` prints it.
COMMANDS = {
    "info": (cmd_info, "module, linking form, metabolizer",
             {"output": ("text", "text|structured")}),
    "obstruct": (cmd_obstruct, "the obstruction sweep; --cmax is only echoed",
                 {"cmax": (5, "[0-9]+"), "mode": ("symbolic", "symbolic|numeric"),
                  "output": ("text", "text|structured"), "cells": (False, "")}),
    "signature": (cmd_signature, "signature jumps and integral",
                  {"emit": ("jumps", "jumps|table")}),
}


def usage(argv: list[str]) -> str:
    """The help of the command that argv names, or of every command."""
    return "\n".join(
        f"usage: rhoslice {name} FILE [options]\n  {summary}" + "".join(
            f"\n  --{option}{pattern and ' '}{pattern} (default {default})"
            for option, (default, pattern) in options.items())
        for name, (_, summary, options) in COMMANDS.items()
        if name in argv[:1] or not COMMANDS.keys() & argv[:1]
    ) + "\n-h, --help: print this help and exit"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, FILE and options, read against COMMANDS: options come
    before or after FILE, as `--name value` or `--name=value`, the last one
    winning.  Raises ValueError on a command line the table refuses."""
    if not COMMANDS.keys() & argv[:1]:
        raise ValueError(f"the command is one of {', '.join(COMMANDS)}")
    func, _, options = COMMANDS[argv[0]]
    args = SimpleNamespace(func=func, file=None, **{
        option: default for option, (default, _) in options.items()})
    rest = iter(argv[1:])
    for token in rest:
        option, eq, value = token[2:].partition("=")
        if token[:1] != "-" and args.file is None:
            args.file = token
        elif token[:2] == "--" and option in options:
            default, pattern = options[option]
            if pattern and not eq:
                value = next(rest, "")
            if not re.fullmatch(pattern, value) or (eq and not pattern):
                raise ValueError(f"--{option} takes {pattern or 'no value'}, "
                                 f"not {_quoted(value)}")
            setattr(args, option, type(default)(value) if pattern else True)
        else:
            raise ValueError(f"unrecognized argument {_quoted(token)}")
    if args.file is None:
        raise ValueError("FILE is missing")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage(argv))
        return 0
    try:
        args = parse_args(argv)
    except ValueError as exc:
        print(usage(argv), f"error: {exc}", sep="\n", file=sys.stderr)
        return 1
    limit = sys.get_int_max_str_digits()
    try:
        # int() takes time quadratic in the digits: a document's numbers
        # keep the default limit, which exact coefficients outgrow
        sys.set_int_max_str_digits(DIGIT_LIMIT)
        doc = load_document(args.file)
        sys.set_int_max_str_digits(0)
        code = args.func(doc, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except RhosliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
