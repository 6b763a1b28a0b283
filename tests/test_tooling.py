"""Checks on the package source itself."""

import ast
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


@pytest.mark.parametrize("command", (["bench/selftest.py"],
                                     ["bench/run.py", "--smoke"]))
def test_benchmark_checks_pass(command):
    # The benchmark checks every CLI output against an independent
    # computation; a change that breaks those checks fails here too.
    proc = subprocess.run([sys.executable, *command], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
