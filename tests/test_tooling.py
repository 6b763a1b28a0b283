"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def unreferenced_definitions(public: bool, constants: bool = False) -> list[str]:
    """Module-level defs and classes of src/ (with `constants`, its
    UPPER_CASE constants), private (_name) or public, that nothing in src/
    refers to; a reference from inside its own definition (recursion) does
    not count, and an import does."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    references = []
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
                if (bound.startswith("_") != public
                        and not any(ref == bound and not (
                            where == name
                            and node.lineno <= line <= node.end_lineno)
                            for where, line, ref in references)):
                    found.append(f"{name}:{node.lineno} {bound}")
    return found


def test_private_helpers_have_a_caller():
    # a module-level _helper that nothing in src/ refers to is dead code
    assert unreferenced_definitions(public=False) == []


def test_public_definitions_are_used_or_exported():
    # a public def or class that src/ neither calls nor exports from
    # rhoslice/__init__ serves only the tests, which belongs in tests/;
    # cli's public functions are the command and document interface
    assert [found for found in unreferenced_definitions(public=True)
            if not found.startswith("cli.py:")] == []


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
    # would pay for; the records are named tuples
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rhoslice.cli; assert 'mpmath' not in sys.modules; "
         "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
         "& set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
