"""End-to-end benchmark of the `rhoslice` command line.

    python3 bench/run.py --workload sweep-wide --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout: the program under test is the
`src/rhoslice` package next to this directory, run as `python3 -m
rhoslice.cli` with `src` on PYTHONPATH.  The benchmark is a closed loop
with one client: it starts one child process per operation and starts the
next only after the previous one has exited, so at most one core runs the
program.  It repeats whole rounds of its seeded documents until `--seconds`
have passed, checks every output, and prints one JSON line of metrics.

With `--trace 0` the children are plain CLI processes and the line holds
the end-to-end metrics; with `--trace 1` every child runs under
bench/tracer.py and the line holds the per-layer metrics instead.  Each
run also writes bench/results/<workload>-seed<n>-trace<t>-<time>.json with
the machine, the per-operation samples and the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work" / str(os.getpid())
RESULTS = BENCH / "results"
# The machine's speed drifts by tens of percent over seconds, so the timed
# imports behind setup_s are spread over the run, one after each operation,
# and not taken in one burst at the start.
IMPORT = "import rhoslice.cli"
# A run must end within 180 s; no operation may run past this point.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Launcher:
    """The process that forks, times and reaps each child (launcher.py)."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=child_env(),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], stdout: Path,
            timeout: float) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        request = {"argv": argv, "stdout": str(stdout),
                   "stderr": str(WORK / "stderr.txt"), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process died")
        reply = json.loads(line)
        return reply["wall_s"], reply["exit"], reply["rss_mb"]


def check_import(launch: Launcher) -> None:
    """One untimed import, which also writes the bytecode caches, to prove
    that the package comes from SRC."""
    probe = WORK / "import.txt"
    code = IMPORT + "; print(rhoslice.cli.__file__)"
    _, rc, _ = launch.run([sys.executable, "-c", code], probe, 60.0)
    where = Path(probe.read_text().strip() or ".").resolve()
    if rc != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"cannot import rhoslice.cli from {SRC}: "
                         + (WORK / "stderr.txt").read_text()[-500:])


def time_import(launch: Launcher, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports rhoslice.cli and exits."""
    wall, rc, _ = launch.run([sys.executable, "-c", IMPORT],
                             WORK / "import.txt",
                             max(1.0, deadline - time.perf_counter()))
    if rc != 0:
        raise BenchError("import of rhoslice.cli failed")
    return wall


def write_documents(ops) -> list[Path]:
    paths = []
    for i, op in enumerate(ops):
        paths.append(WORK / f"doc-{i}.json")
        paths[-1].write_text(json.dumps(op.document))
    return paths


def run_op(launch: Launcher, op, doc: Path, traced: bool,
           deadline: float) -> dict:
    out = WORK / "stdout.txt"
    spans = WORK / "spans.json"
    cli = [op.command, str(doc), *op.options]
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *cli]
    else:
        argv = [sys.executable, "-m", "rhoslice.cli", *cli]
    timeout = max(1.0, deadline - time.perf_counter())
    wall, code, rss = launch.run(argv, out, timeout)
    sample = {"op": op.label, "wall_s": wall, "exit": code, "rss_mb": rss,
              "failed": code not in (0, 2), "check": None}
    if sample["failed"]:
        sample["check"] = (WORK / "stderr.txt").read_text()[-500:]
        return sample
    try:
        checks.check(op, code, out.read_text())
    except checks.CheckError as exc:
        sample["check"] = str(exc)
    if traced:
        sample["layers"] = tracer.layer_metrics(json.loads(spans.read_text()))
    return sample


def run_rounds(launch: Launcher, ops, seconds: float, traced: bool,
               deadline: float) -> tuple[list[dict], list[float]]:
    """Whole rounds of `ops` until `seconds` of wall time have passed:
    (operation samples, import times)."""
    samples: list[dict] = []
    imports: list[float] = []
    docs = write_documents(ops)
    start = time.perf_counter()
    rounds = 0
    while not samples or time.perf_counter() - start < seconds:
        for op, doc in zip(ops, docs):
            if time.perf_counter() > deadline:
                raise BenchError("run exceeded its deadline")
            samples.append(run_op(launch, op, doc, traced, deadline))
            samples[-1]["round"] = rounds
            if not traced:
                imports.append(time_import(launch, deadline))
        rounds += 1
    return samples, imports


def e2e_metrics(samples: list[dict], setup: list[float]) -> dict:
    done = [s["wall_s"] for s in samples if not s["failed"]]
    timed = sum(s["wall_s"] for s in samples)
    return {
        "latency_p50_s": {"value": statistics.median(done), "unit": "s"},
        "ops_per_min": {"value": 60.0 * len(done) / timed, "unit": "ops/min"},
        "peak_rss_mb": {"value": max(s["rss_mb"] for s in samples),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def layer_summary(samples: list[dict]) -> dict:
    """Per-layer figures per operation: for each round, the mean over its
    operations (the maximum for `_max` figures), then the median over
    rounds.  A round mixes commands, so the median over single operations
    would read 0 for a layer that only a minority of them use.  Counts are
    the same in every round."""
    rounds: dict[int, list[dict]] = {}
    for s in samples:
        if "layers" in s:
            rounds.setdefault(s["round"], []).append(s["layers"])
    out = {}
    for metric in tracer.METRICS:
        per_round = []
        for layers in rounds.values():
            values = [layer[metric] for layer in layers]
            per_round.append(max(values) if metric.endswith("_max")
                             else sum(values) / len(values))
        unit = "s" if metric.endswith("_s") else "count"
        out[metric] = {"value": statistics.median(per_round), "unit": unit}
    return out


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model,
            "cpus": os.cpu_count(), "python": sys.version.split()[0]}


def git_sha() -> str | None:
    """HEAD of the checkout, or None when ROOT is not a git work tree (git is
    kept from searching the directories above ROOT)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_results(args, samples, setup, metrics, correct) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "git_sha": git_sha(),
        "attempted": len(samples),
        "failed": sum(s["failed"] for s in samples),
        "correct": correct, "setup_samples_s": setup,
        "samples": samples, "metrics": metrics,
    }, indent=1))
    return path


def smoke(launch: Launcher) -> int:
    """Every workload's checks on one small input each, untraced and traced."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    check_import(launch)
    ops = workloads.smoke_round()
    docs = write_documents(ops)
    bad = 0
    for traced in (False, True):
        for op, doc in zip(ops, docs):
            s = run_op(launch, op, doc, traced, deadline)
            status = "ok" if not s["failed"] and s["check"] is None else "FAIL"
            bad += status != "ok"
            print(f"{status} {op.label} trace={int(traced)} exit={s['exit']} "
                  f"{s['wall_s']:.2f}s {s['check'] or ''}".rstrip())
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload on one small input")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "rhoslice" / "cli.py").is_file():
        print(f"error: no rhoslice sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        with Launcher() as launch:
            if args.smoke:
                return smoke(launch)
            deadline = time.perf_counter() + RUN_DEADLINE_S
            ops = workloads.round_for(args.workload, args.seed)
            check_import(launch)
            samples, setup = run_rounds(launch, ops, args.seconds,
                                        bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK)
    failed = sum(s["failed"] for s in samples)
    wrong = [s for s in samples if not s["failed"] and s["check"] is not None]
    for s in wrong:
        print(f"check failed: {s['op']}: {s['check']}", file=sys.stderr)
    if failed == len(samples):
        print("error: every operation failed", file=sys.stderr)
        return 2
    metrics = (layer_summary(samples) if args.trace
               else e2e_metrics(samples, setup))
    path = write_results(args, samples, setup, metrics, not wrong)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not wrong, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
