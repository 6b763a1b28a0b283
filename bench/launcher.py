"""Starts the benchmark's child processes, one at a time, and times them.

Reads one JSON request per line on stdin,

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

runs it to completion and answers with one JSON line,

    {"wall_s": ..., "exit": ..., "rss_mb": ...}

The wall time runs from just before the spawn to the reaping of the child,
so it holds interpreter start-up and import.  The peak resident set comes
from `wait4`.  On Linux a child's `ru_maxrss` starts at the resident set of
the process it was forked from, so the children are forked from this small
process and not from the benchmark, whose own memory grows as it checks
outputs.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
