"""Byte-for-byte comparison of the `rhoslice` command between two source trees.

    python tests/parity.py PARENT_SRC [--seeds N ...] [--doc FILE ...]

PARENT_SRC is the `src` directory of another checkout (for instance a
`git archive` of the parent commit).  Every run goes through
`python -m rhoslice.cli`, once with PARENT_SRC and once with this tree's
`src` on `PYTHONPATH`, and its stdout, stderr and exit code must agree.

The runs are every operation of the given seeds of the benchmark's three
workloads, read from `bench/workloads.py` under their own options, plus:
- for `obstruct`, the same options with `--cells`, and with text output;
- for a bare Seifert matrix, `info` in both outputs and `signature` with
  both `--emit` choices, whichever of the two the workload ran.
Each `--doc FILE` adds `info` and both `signature` runs of its knot; a
document with a pattern adds `obstruct` with structured output, with
`--cells`, with text output and in numeric mode.  The built-in documents of
`builtin_documents` run the same way on every invocation: no workload has
an interval companion, whose negation in the -tK block they compare.

It prints one line per differing run and a count, and exits 1 when any run
differs.  The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, _signature_pool, round_for  # noqa: E402

INFO = (("info", "--output", "structured"), ("info",))
SIGNATURE = (("signature",), ("signature", "--emit", "table"))


def variants(command: str, options: tuple[str, ...], document: dict):
    """The argument lists (without the document path) run on one document."""
    if command == "obstruct":
        text = [o for o in options if o not in ("--output", "structured")]
        return [("obstruct", *options), ("obstruct", *options, "--cells"),
                ("obstruct", *text, "--output", "text")]
    if "pattern" in document:
        return [*INFO, *SIGNATURE]
    return list(dict.fromkeys([(command, *options), *INFO, *SIGNATURE]))


def builtin_documents() -> dict[str, dict]:
    """9_46 documents with certified-interval companions: given as
    `rho0_interval`, mixed with a symbol in a family of multiplicities 2
    and -1, and computed from the benchmark's `g2-irrational` matrix."""
    pattern = {"name": "9_46", "seifert": [[0, 1], [2, 0]],
               "curves": [{"name": "alpha", "class": ["1", "0"]},
                          {"name": "beta", "class": ["0", "1"]}]}
    base = {"schema": "rhoslice.knot/1", "pattern": pattern}
    irrational = dict(_signature_pool())["g2-irrational"]
    return {
        "interval-9_46": dict(base, companions={
            "alpha": {"rho0_interval": ["1/5", "1/3"]},
            "beta": {"rho0_interval": ["-2/7", "-1/7"]}}),
        "interval-symbol-family": dict(base, knots={
            "K1": {"companions": {"alpha": {"rho0_interval": ["1/4", "1/3"]},
                                  "beta": {"symbol": "rB"}}},
            "K2": {"companions": {"alpha": {"symbol": "rA"},
                                  "beta": {"rho0_interval": ["-2/5",
                                                             "-1/5"]}}}},
            family=[{"knot": "K1", "multiplicity": 2},
                    {"knot": "K2", "multiplicity": -1}]),
        "g2-irrational-9_46": dict(base, companions={
            "alpha": {"seifert": irrational}, "beta": {"symbol": "rB"}}),
    }


def cases(seeds, docs):
    """(name, document, argument list) for every run."""
    for workload in WORKLOADS:
        for seed in seeds:
            for op in round_for(workload, seed):
                for argv in variants(op.command, op.options, op.document):
                    yield f"{workload}/{seed}/{op.label}", op.document, argv
    documents = {path: json.loads(Path(path).read_text(encoding="utf-8"))
                 for path in docs}
    for name, document in {**builtin_documents(), **documents}.items():
        argvs = [*INFO, *SIGNATURE]
        if "pattern" in document:
            argvs += [*variants("obstruct", ("--output", "structured"),
                                document), ("obstruct", "--mode", "numeric")]
        for argv in argvs:
            yield name, document, argv


def run(src: Path, argv, path: Path, timeout: float):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "rhoslice.cli", argv[0],
                           str(path), *argv[1:]],
                          env=env, capture_output=True, timeout=timeout)
    return proc.stdout, proc.stderr, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--doc", action="append", default=[])
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args()
    if not (args.parent_src / "rhoslice" / "cli.py").is_file():
        parser.error(f"{args.parent_src} has no rhoslice/cli.py")
    total = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, document, argv in cases(args.seeds, args.doc):
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            parent = run(args.parent_src, argv, path, args.timeout)
            here = run(ROOT / "src", argv, path, args.timeout)
            total += 1
            if parent != here:
                differing += 1
                print(f"DIFFERS {name}: {' '.join(argv)} (exit "
                      f"{parent[2]} -> {here[2]})", flush=True)
    print(f"{total} runs, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
