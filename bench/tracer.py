"""Per-layer spans around the calls into rhoslice's modules.

Run as a script, this is the `rhoslice` command with tracing installed:

    python3 bench/tracer.py SPANS.json <rhoslice arguments>

Before `rhoslice.cli.main` runs, every public module-level function of the
eight modules is replaced by a wrapper that records a span (name, start,
end, parent).  The modules import each other's functions by name
(`from .linalg import poly_mat_det`), so each wrapper replaces every
module's binding of the function, not only the defining module's.  Two
spans that are not module functions are added: `LinkingForm.validate` and
the `json.dumps` calls made by the cli.  Spans stay in memory and are
written to SPANS.json at exit.

Imported as a module, `layer_metrics` turns one operation's spans into the
benchmark's per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "obstruction", "blanchfield", "almodule", "linalg",
          "polyalg", "seifert", "signatures")
# A one-line coercion called ~10^5 times per operation; wrapping it would
# cost more than the work it does.  Its time counts to its callers.
UNWRAPPED = {"polyalg.as_fraction"}

# Named spans behind each per-layer timing (inclusive time of the
# outermost such span).
TIMED = {
    "cli.parse_s": ("cli.load_document",),
    "cli.emit_s": ("cli.json.dumps",),
    "obstruction.enumerate_s": ("obstruction.admissible_patterns",),
    "obstruction.evaluate_s": ("obstruction.evaluate_rho",),
    "blanchfield.basechange_s": ("blanchfield.basechange_form",),
    "blanchfield.validate_s": ("blanchfield.LinkingForm.validate",),
    "blanchfield.perp_s": ("blanchfield.annihilator_submodule",),
    "blanchfield.form_s": ("blanchfield.blanchfield_form",),
    "almodule.reparametrize_s": ("almodule.reparametrize",),
    "almodule.isotypic_s": ("almodule.isotypic_decompose",
                            "almodule.reduce_to_isotypic"),
    "almodule.snf_s": ("almodule.smith_normal_form",),
    "linalg.rref_s": ("linalg.rref",),
    "linalg.det_s": ("linalg.poly_mat_det", "linalg.det_int"),
    "linalg.adjugate_s": ("linalg.poly_mat_adjugate",),
    "polyalg.factor_s": ("polyalg.factor_laurent",),
    "polyalg.gcd_s": ("polyalg.gcd_laurent", "polyalg.xgcd_laurent"),
    "seifert.alexander_s": ("seifert.alexander_polynomial",),
    "seifert.metabolizer_s": ("seifert.metabolizer_search",),
    "signatures.jumps_s": ("signatures.signature_function",),
    "signatures.lt_signature_s": ("signatures.lt_signature_at",),
    "signatures.integral_s": ("signatures.rho0_from_signature",),
}
# Number of spans with these names.
CALLS = {
    "blanchfield.validate_calls": ("blanchfield.LinkingForm.validate",),
    "linalg.rref_calls": ("linalg.rref",),
    "linalg.det_calls": ("linalg.poly_mat_det", "linalg.det_int"),
    "polyalg.factor_calls": ("polyalg.factor_laurent",),
    "seifert.alexander_calls": ("seifert.alexander_polynomial",),
    "signatures.lt_signature_calls": ("signatures.lt_signature_at",),
}
# Values recorded with a span: (metric, span names, index into the value,
# how to combine the values of one operation).
VALUED = {
    "obstruction.cells": (("obstruction.admissible_patterns",), 0, sum),
    "obstruction.slots_per_class_max": (("obstruction.admissible_patterns",),
                                        1, max),
    "almodule.dim_q_max": (("almodule.alexander_module",
                            "almodule.reparametrize", "almodule.direct_sum"),
                           0, max),
    "polyalg.factor_degree_max": (("polyalg.factor_laurent",), 0, max),
}
SELF = tuple(f"{layer}.self_s" for layer in LAYERS)
METRICS = SELF + tuple(TIMED) + tuple(CALLS) + tuple(VALUED)


def _patterns_value(args, out):
    return [len(out), max((len(p.support) for p in out), default=0)]


def _module_value(args, out):
    return [out.dim_q()]


def _reparametrize_value(args, out):
    return [out[0].dim_q()]   # (module, transport)


def _factor_value(args, out):
    return [args[0].span]


VALUE_OF = {
    "obstruction.admissible_patterns": _patterns_value,
    "almodule.alexander_module": _module_value,
    "almodule.reparametrize": _reparametrize_value,
    "almodule.direct_sum": _module_value,
    "polyalg.factor_laurent": _factor_value,
}


class Recorder:
    """Open-span stack and the finished spans of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start ns, end ns, parent]
        self.values: dict[int, list] = {}
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, values = self.spans, self.stack, self.values
        value_of = VALUE_OF.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                values[idx] = value_of(args, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "values": self.values}, fh)


class _TracedJson:
    """Stands in for the `json` module inside rhoslice.cli."""

    def __init__(self, recorder: Recorder):
        self.dumps = recorder.wrap("cli.json.dumps", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(recorder: Recorder) -> None:
    import rhoslice.cli  # imports every layer

    modules = [sys.modules[f"rhoslice.{layer}"] for layer in LAYERS]
    modules.append(sys.modules["rhoslice"])
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"rhoslice.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if inspect.isfunction(obj) or isinstance(
                    obj, functools._lru_cache_wrapper):
                wrapped[id(obj)] = (obj, recorder.wrap(name, obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    linking_form = sys.modules["rhoslice.blanchfield"].LinkingForm
    linking_form.validate = recorder.wrap("blanchfield.LinkingForm.validate",
                                          linking_form.validate)
    rhoslice.cli.json = _TracedJson(recorder)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["rhoslice.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one operation from its spans."""
    names = trace["names"]
    spans = trace["spans"]
    values = {int(k): v for k, v in trace["values"].items()}
    span_name = [names[s[0]] for s in spans]
    child_time = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    for i, s in enumerate(spans):
        self_ns[span_name[i].split(".", 1)[0]] += s[2] - s[1] - child_time[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9

    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(span_name):
        by_name.setdefault(n, []).append(i)

    def picked(wanted: tuple[str, ...]) -> list[int]:
        return [i for n in wanted for i in by_name.get(n, ())]

    def outermost(i: int, wanted: tuple[str, ...]) -> bool:
        p = spans[i][3]
        while p >= 0:
            if span_name[p] in wanted:
                return False
            p = spans[p][3]
        return True

    for metric, wanted in TIMED.items():
        out[metric] = sum(spans[i][2] - spans[i][1] for i in picked(wanted)
                          if outermost(i, wanted)) / 1e9
    for metric, wanted in CALLS.items():
        out[metric] = len(picked(wanted))
    for metric, (wanted, index, combine) in VALUED.items():
        found = [values[i][index] for i in picked(wanted) if i in values]
        out[metric] = combine(found) if found else 0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
