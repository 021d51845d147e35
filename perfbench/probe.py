"""Host-speed probe for the untraced run.

The benchmark runs on shared machines whose speed drifts over minutes, so a
run's wall times describe the host as much as the program.  Before each
operation the untraced run times two fixed kernels that pathae does not run:

- ``gil``: one pure-Python loop per CPU, on as many threads sharing the GIL,
  as in pipeline's worker pool;
- ``blas``: one float64 matrix product, on the BLAS threads.

Each is the fastest of three tries, so one preempted slice does not count.
A workload divides its operation time by the kernel that does its kind of
work.  The kernels run in a helper process (this file, run as a script)
started before pathae is imported, so nothing pathae sets in the benchmark's
process (BLAS threads, the GIL switch interval, the environment) changes
them.  The helper reads one line per request on stdin, answers with one JSON
line on stdout, and exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

SPIN = 150_000
MATRIX = (256, 1024)
TRIES = 3


def _spin(n):
    return sum(i * i for i in range(n))


def serve(requests, answers):
    import numpy as np

    threads = len(os.sched_getaffinity(0))
    a, b = np.ones(MATRIX), np.ones(MATRIX[::-1])
    with ThreadPoolExecutor(threads) as pool:
        kernels = {
            "gil": lambda: list(pool.map(_spin, [SPIN] * threads)),
            "blas": lambda: a @ b,
        }
        for _request in requests:
            times = {}
            for kind, kernel in kernels.items():
                best = float("inf")
                for _ in range(TRIES):
                    t0 = time.perf_counter()
                    kernel()
                    best = min(best, time.perf_counter() - t0)
                times[kind] = best
            answers.write(json.dumps(times) + "\n")
            answers.flush()


class HostProbe:
    """Calling it returns {"gil": seconds, "blas": seconds}.  ``close`` ends
    the helper process and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> dict:
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with status {self.proc.poll()}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
