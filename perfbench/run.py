"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts one bench.py worker per CPU the process may use (at most two), each
pinned to its CPU, with BLAS and OpenMP limited to one thread, all running
the same workload and seed. Waits for every worker, stopping them all if
they overrun, then pools their samples and prints the report; its last line
is the JSON result. Run it from the repository root: the workers import
headkv from ./src and exit non-zero, with no result printed, when it is
missing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 170
MAX_WORKERS = 2


def main() -> int:
    args = bench.parse_args()
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cpus = sorted(os.sched_getaffinity(0))[:MAX_WORKERS]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench.RESULTS.mkdir(exist_ok=True)
    outs = [bench.RESULTS / f"{stem}.worker{k}.json" for k in range(len(cpus))]
    for out in outs:
        out.unlink(missing_ok=True)
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "bench.py"), *sys.argv[1:],
                          "--cpu", str(cpu), "--worker", str(k), "--out", str(out)], env=env)
        for k, (cpu, out) in enumerate(zip(cpus, outs))
    ]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        for proc in procs:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: workers exceeded {TIMEOUT_S} s and were stopped", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            proc.wait()
    if any(proc.returncode for proc in procs):
        return 1
    return bench.report(args, [json.loads(out.read_text(encoding="utf-8")) for out in outs])


if __name__ == "__main__":
    sys.exit(main())
