"""Checks on the package source itself."""

import ast
import json
import os
import pickle
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import rhoslice

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rhoslice"


def test_no_assert_statements():
    # invariants raise exceptions, so they still hold under `python -O`
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_function_local_imports():
    # every import sits at the top of its module, where it is read once
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_module_name_bound_twice():
    # a second module-level def or class of one name silently replaces the
    # first, which is then dead code; the dead one is named
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        first: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in first:
                    found.append(f"{path.name}:{first[node.name]}")
                first[node.name] = node.lineno
    assert found == []


def _bound_names(node: ast.stmt, constants: bool) -> list[str]:
    """The defs and classes a module-level statement binds, or with
    `constants` its UPPER_CASE names (optionally _-prefixed)."""
    if not constants:
        return [node.name] if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else []
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()]


def init_tables() -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """rhoslice/__init__'s lazily registered layers and its export table,
    as (public name, the layer that defines it) pairs, as written in its
    source."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    values = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("_LAYERS", "_EXPORTS")}
    return values["_LAYERS"], [(name, layer)
                               for layer, names in values["_EXPORTS"].items()
                               for name in names]


def unreferenced_definitions(public: bool, constants: bool = False) -> list[str]:
    """Module-level defs and classes of src/ (with `constants`, its
    UPPER_CASE constants), private (_name) or public, that nothing in src/
    refers to; a reference from inside its own definition (recursion) does
    not count, and an import or an entry of rhoslice/__init__'s export
    table does.  Module-level dunder hooks (`__getattr__`), which the
    interpreter calls, are not listed."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    references = [("__init__.py", 0, name) for name, _ in init_tables()[1]]
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                references += [(name, node.lineno, alias.name)
                               for alias in node.names]
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            for bound in _bound_names(node, constants):
                if bound.startswith("__") and bound.endswith("__"):
                    continue
                if (bound.startswith("_") != public
                        and not any(ref == bound and not (
                            where == name
                            and node.lineno <= line <= node.end_lineno)
                            for where, line, ref in references)):
                    found.append(f"{name}:{node.lineno} {bound}")
    return found


# Most tokens in one module.  A command's peak resident set follows the
# parse of the largest module it compiles, at about 0.45 KB per token.
MODULE_TOKEN_BUDGET = 4600


def test_each_module_parses_within_the_token_budget():
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            sizes[path.name] = sum(
                1 for token in tokenize.generate_tokens(fh.readline)
                if token.type not in skipped)
    assert "polyalg.py" in sizes
    assert {name: n for name, n in sizes.items()
            if n > MODULE_TOKEN_BUDGET} == {}


def test_private_helpers_have_a_caller():
    # a module-level _helper that nothing in src/ refers to is dead code
    assert unreferenced_definitions(public=False) == []


def test_public_definitions_are_used_or_exported():
    # a public def or class that src/ neither calls nor exports from
    # rhoslice/__init__ serves only the tests, which belongs in tests/;
    # cli's public functions are the command and document interface
    assert [found for found in unreferenced_definitions(public=True)
            if not found.startswith("cli.py:")] == []


def uncalled_methods() -> list[str]:
    """Public methods and properties of the classes of src/ whose name is
    nowhere read as an attribute (`.name`) in src/, tests/ or README.md."""
    text = "\n".join(path.read_text(encoding="utf-8") for path in [
        *sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
        ROOT / "README.md"])
    read = set(re.findall(r"\.(\w+)", text))
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += [f"{cls.name}.{fn.name}" for fn in cls.body
                          if isinstance(fn, ast.FunctionDef)
                          and not fn.name.startswith("_")
                          and fn.name not in read]
    return found


def test_public_methods_have_a_reader():
    # a public method or property that no code, test or README example
    # reads is dead code
    assert uncalled_methods() == []


def test_error_classes_derive_from_the_package_error():
    # `cli.main` catches RhosliceError alone, so that an error message
    # loads no layer; every other error class of src/ must derive from it
    errors = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error"):
                errors[f"{path.name}:{node.name}"] = [
                    ast.unparse(base) for base in node.bases]
    assert errors.pop("__init__.py:RhosliceError") == ["ValueError"]
    assert len(errors) == 7
    assert {name: bases for name, bases in errors.items()
            if bases != ["RhosliceError"]} == {}


def test_no_layer_catches_a_package_error():
    # a package error is a failed check or a refused input, and only the
    # command line turns it into a message; a layer that caught one could
    # swallow a real invariant failure
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    errors = {"RhosliceError"} | {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base) == "RhosliceError" for base in node.bases)}
    assert len(errors) == 8
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             if name != "cli.py" for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and errors & {getattr(n, "id", None) or getattr(n, "attr", None)
                           for n in ast.walk(node.type)}]
    assert found == []


def test_export_table_names_are_defined_in_their_layers():
    # each public name of the package is listed once, as a module-level
    # def, class or constant of the layer the table names, and every layer
    # but the cli is registered
    layers, exports = init_tables()
    assert set(layers) == {path.stem for path in SRC.glob("*.py")} - {
        "__init__", "cli"}
    assert ("factor_laurent", "factor") in exports
    assert ("Submodule", "submodule") in exports
    defined = {}
    for layer in layers:
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        defined[layer] = {
            name for node in tree.body
            for name in _bound_names(node, constants=False) + [
                t.id for t in (node.targets if isinstance(node, ast.Assign)
                               else [])
                if isinstance(t, ast.Name)]}
    assert exports
    names = [name for name, _ in exports]
    assert len(names) == len(set(names))
    assert [f"{layer}.{name}" for name, layer in exports
            if layer not in defined or name not in defined[layer]] == []


def test_module_constants_have_a_reader():
    # an UPPER_CASE constant that nothing in src/ reads or exports is left
    # over from removed code; cli's constants get no exemption
    assert unreferenced_definitions(public=True, constants=True) == []
    assert unreferenced_definitions(public=False, constants=True) == []


def test_imports_are_standard_library_or_relative():
    # the package needs only the standard library at run time
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] not in sys.stdlib_module_names
                   for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_leaves_mpmath_unloaded():
    # nor dataclasses and the modules it brings, which every CLI start-up
    # would pay for (the records are named tuples), nor argparse and the
    # gettext and locale it brings (the command line is read from a table)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rhoslice.cli; assert 'mpmath' not in sys.modules; "
         "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
         "'argparse', 'gettext', 'locale'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def src_env(**extra) -> dict[str, str]:
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if "PYTHONPATH" in os.environ else [])))


# Runs `rhoslice.cli` as `python -m rhoslice.cli` does, or imports it, and
# prints the src/rhoslice/*.py module bodies that ran and the loaded modules
# of the standard library that no command needs, as a JSON pair on the last
# line of stderr.  A module body runs by exec(), which raises the "exec"
# audit event with its code object, from source or bytecode cache.
RAN_PROBE = """
import json, os, runpy, sys
ran = set()
src = os.path.join(sys.argv[1], "")

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", "").startswith(src):
        ran.add(os.path.basename(args[0].co_filename)[:-3])

sys.addaudithook(hook)
try:
    if sys.argv[2:] == ["--import"]:
        import rhoslice.cli
    else:
        sys.argv[1:] = sys.argv[2:]
        runpy.run_module("rhoslice.cli", run_name="__main__", alter_sys=True)
finally:
    unneeded = {"argparse", "gettext", "locale"} & set(sys.modules)
    print(json.dumps([sorted(ran), sorted(unneeded)]), file=sys.stderr)
"""


def test_each_command_loads_only_its_layers(tmp_path):
    # import rhoslice compiles no layer; each command loads the layers it
    # calls into, only obstruct loads the obstruction engine, only a module
    # that is not cyclic loads the orthogonal complements, and an error
    # exit loads no layer beyond those that ran before the error; no run
    # loads argparse, gettext or locale
    bare = tmp_path / "trefoil.json"
    bare.write_text(json.dumps({"schema": "rhoslice.knot/1",
                                "seifert": [[-1, 1], [0, -1]]}),
                    encoding="utf-8")
    pattern = tmp_path / "9_46.json"
    pattern.write_text(json.dumps({
        "schema": "rhoslice.knot/1",
        "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                    "curves": [{"name": "alpha", "class": ["1", "0"]},
                               {"name": "beta", "class": ["0", "1"]}]},
        "companions": {"alpha": {"symbol": "rA"}, "beta": {"symbol": "rB"}}}),
        encoding="utf-8")
    computed = tmp_path / "9_46-trefoil.json"
    computed.write_text(json.dumps(dict(
        json.loads(pattern.read_text(encoding="utf-8")),
        companions={"alpha": {"symbol": "rA"},
                    "beta": {"seifert": [[-1, 1], [0, -1]]}})),
        encoding="utf-8")
    # trefoil # trefoil: Q[t]/(t^2 - t + 1) twice, not cyclic
    block_sum = tmp_path / "trefoil2.json"
    block_sum.write_text(json.dumps({"schema": "rhoslice.knot/1", "seifert": [
        [-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]}),
        encoding="utf-8")
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json", encoding="utf-8")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"schema": "rhoslice.knot/1",
                                   "seifert": [[-1, 1], [0, -1]], "bogus": 1}),
                       encoding="utf-8")
    front = {"__init__", "cli"}
    algebra = front | {"polyalg", "linalg", "seifert"}
    # the factoring layer, loaded by every layer that factors
    factoring = algebra | {"factor"}
    # (argv, the modules that run, exit code)
    cases = [
        (["--import"], front, 0),
        (["--help"], front, 0),
        (["obstruct", str(pattern), "-h"], front, 0),
        (["signature", str(bare)], factoring | {"signatures"}, 0),
        (["signature", str(bare), "--emit", "table"],
         factoring | {"signatures"}, 0),
        (["info", str(bare)], factoring | {"almodule", "blanchfield"}, 0),
        (["info", str(bare), "--output", "structured"],
         factoring | {"almodule", "blanchfield"}, 0),
        # a pattern document's companions are parsed into values that
        # seifert defines
        (["info", str(pattern)], factoring | {"almodule", "blanchfield"}, 0),
        (["signature", str(pattern)], factoring | {"signatures"}, 0),
        # validate falls back to orthogonal complements
        (["info", str(block_sum)],
         factoring | {"almodule", "blanchfield", "submodule"}, 0),
        # error exits load no layer that did not run
        (["info", str(tmp_path / "nosuch.json")], front, 1),
        (["info", str(invalid)], front, 1),
        (["info", str(unknown)], front, 1),
        (["obstruct", str(bare)], algebra, 1),
        # a usage error
        (["obstruct", str(pattern), "--bogus"], front, 1),
        # signatures only computes a companion's integral from its matrix;
        # no form obstruct builds needs orthogonal complements
        (["obstruct", str(pattern)],
         factoring | {"almodule", "blanchfield", "obstruction"}, 0),
        (["obstruct", str(computed)],
         {path.stem for path in SRC.glob("*.py")} - {"submodule"}, 0),
    ]
    assert len(cases[-1][1]) == 10
    # compiled from source, then read from a bytecode cache that the first
    # obstruct run fills
    cache = tmp_path / "pycache"
    compiled = src_env(PYTHONDONTWRITEBYTECODE="1")
    cached = {key: value for key, value in src_env(
        PYTHONPYCACHEPREFIX=str(cache)).items()
        if key != "PYTHONDONTWRITEBYTECODE"}
    for env in (compiled, cached):
        if env is cached:
            subprocess.run(
                [sys.executable, "-m", "rhoslice.cli", *cases[-1][0]],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
                check=True)
            assert len(list(cache.rglob("*.pyc"))) >= 10
        for argv, layers, code in cases:
            proc = subprocess.run(
                [sys.executable, "-c", RAN_PROBE, str(SRC), *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == code, proc.stderr
            ran, unneeded = json.loads(proc.stderr.splitlines()[-1])
            assert (set(ran), unneeded) == (layers, []), argv
            assert ("error: " in proc.stderr) == bool(code), argv


def test_public_names_resolve_and_records_pickle_in_a_fresh_process():
    # every name of __all__ is its layer's object, or for the one name
    # outside the export table, the package's own; and a report unpickles
    # in an interpreter that has not imported rhoslice: the pickle names
    # rhoslice.obstruction, which loads on first use
    spec = rhoslice.FamilySpec.single(rhoslice.InfectedKnot.build(
        rhoslice.pattern_9_46(),
        {"alpha": rhoslice.Companion("rA", rhoslice.RhoExpr(
            coeffs=(("rA", Fraction(1)),))),
         "beta": rhoslice.Companion("rB", rhoslice.RhoExpr(
             Fraction(-4, 3), Fraction(-4, 3)))}))
    report = rhoslice.verify_obstructed(spec, 1)
    script = (
        "import json, pickle, sys\n"
        "report = pickle.loads(sys.stdin.buffer.read())\n"
        "import rhoslice\n"
        "assert type(report) is rhoslice.ObstructionReport\n"
        "outside = [name for name in rhoslice.__all__\n"
        "           if name not in rhoslice._LAYER_OF]\n"
        "assert all(getattr(rhoslice, name) is vars(rhoslice)[name]\n"
        "           for name in outside)\n"
        "names = [name for name in rhoslice.__all__ if name not in outside\n"
        "         and getattr(rhoslice, name) is not getattr(getattr(\n"
        "             rhoslice, rhoslice._LAYER_OF[name]), name)]\n"
        "print(json.dumps([outside, names, report.to_json()]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps(report), env=src_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(rhoslice.__all__) == len(set(rhoslice.__all__)) > 0
    assert json.loads(proc.stdout) == [["RhosliceError"], [],
                                       report.to_json()]


def test_no_dataclasses_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "dataclasses"
                  or isinstance(node, ast.Import)
                  and any(a.name == "dataclasses" for a in node.names)]
    assert found == []


def test_readme_library_snippet_runs(capsys):
    # the README's "Library use" block is the only caller of
    # `Companion.from_seifert`; run it as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["OBSTRUCTED", "-4/3"]
    assert len(lines) > 2


@pytest.mark.parametrize("command", (["bench/selftest.py"],
                                     ["bench/run.py", "--smoke"]))
def test_benchmark_checks_pass(command):
    # The benchmark checks every CLI output against an independent
    # computation; a change that breaks those checks fails here too.
    proc = subprocess.run([sys.executable, *command], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("cells", ([], ["--cells"]), ids=("default", "cells"))
def test_obstruct_output_is_independent_of_hash_seed(tmp_path, cells):
    # Slot types come from blocks keyed by (member, block), the distinct
    # expressions from a grouping of the types by expression (K3 and K5
    # share theirs), slot positions from the member order and certificates
    # from the sorted symbols; the report must not depend on the iteration
    # order of hashed containers, with the cells listed or not.
    curves = [{"name": "alpha", "class": ["1", "0"]},
              {"name": "beta", "class": ["0", "1"]}]
    doc = {
        "schema": "rhoslice.knot/1",
        "pattern": {"name": "9_46", "seifert": [[0, 1], [2, 0]],
                    "curves": curves},
        "knots": {
            "K1": {"companions": {"alpha": {"symbol": "r"},
                                  "beta": {"symbol": "r"}}},
            "K2": {"companions": {"alpha": {"rho0": "1/3"},
                                  "beta": {"rho0_interval": ["1/5", "1/4"]}}},
            "K3": {"companions": {"alpha": {"symbol": "q"}}},
            "K4": {"companions": {"alpha": {"symbol": "q"},
                                  "beta": {"rho0": "-1/2"}}},
            "K5": {"companions": {"alpha": {"symbol": "q"}}},
        },
        "family": [{"knot": "K1", "multiplicity": 2},
                   {"knot": "K2", "multiplicity": -3},
                   {"knot": "K3", "multiplicity": 1},
                   {"knot": "K4", "multiplicity": -2},
                   {"knot": "K5", "multiplicity": 1}],
    }
    # the same members with companions of one sign per class, and K3 (whose
    # trivial beta companion vanishes) left out: both classes certified,
    # with K5 sharing K4's expressions
    k4 = {"companions": {"alpha": {"symbol": "q"}, "beta": {"rho0": "1/2"}}}
    knots = dict(doc["knots"],
                 K1={"companions": {"alpha": {"symbol": "r"},
                                    "beta": {"symbol": "p"}}},
                 K2={"companions": {"alpha": {"rho0": "-1/3"},
                                    "beta": {"rho0_interval": ["1/5", "1/4"]}}},
                 K4=k4, K5=k4)
    certified = dict(doc, knots=knots, family=[
        dict(m, multiplicity=-1) if m["knot"] == "K5" else m
        for m in doc["family"] if m["knot"] != "K3"])
    env = {seed: dict(os.environ, PYTHONHASHSEED=seed,
                      PYTHONPATH=os.pathsep.join(
                          [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                                 if "PYTHONPATH" in os.environ
                                                 else [])))
           for seed in ("0", "1")}
    for family, code, verdict in ((doc, 2, "INCONCLUSIVE"),
                                  (certified, 0, "OBSTRUCTED")):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family), encoding="utf-8")
        runs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "rhoslice.cli", "obstruct", str(path),
                 "--cmax", "2", "--output", "structured", *cells],
                cwd=tmp_path, env=env[seed], capture_output=True, timeout=300)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        report = json.loads(runs[0][1])
        assert report["verdict"] == verdict
        assert bool(report["cells"]) == bool(cells)
        assert all(bool(t["certificate"]) == (verdict == "OBSTRUCTED")
                   for t in report["slot_types"])
        assert all(any(len(entry["types"]) > 1 for entry in t["types"])
                   for t in report["slot_types"])
