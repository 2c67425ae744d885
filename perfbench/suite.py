"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py                      # one seed, every workload
    python3 perfbench/suite.py --seeds 0-9 --baseline perfbench/baseline.json
    python3 perfbench/suite.py --trace 1 --workloads toy-churn

Each run is a fresh `run.py` process; seeds are the outer loop, so the
workloads interleave in time. For every workload and metric the table gives
the median over runs, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, the number of runs and the samples behind one run's
value. --baseline writes the same figures into the end_to_end or per_layer
section of a JSON file, with the environment, each workload's reason and
the per-layer to end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the run's record also holds the report-only metrics and the sample counts
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["metrics"] = record["metrics"]
    result["environment"] = record["environment"]
    return result


def across_runs(runs: list[dict]) -> dict:
    out = {}
    for name, meta in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": meta["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values),
            "samples_per_run": statistics.median(r["metrics"][name]["samples"] for r in runs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path, help="write the summary to this JSON file")
    args = ap.parse_args()
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}")
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            res = run_once(name, seed, args.seconds, args.trace)
            runs[name].append(res)
            print(f"# {name} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    summary = {}
    for name in names:
        rs = runs[name]
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        summary[name] = {"why": WORKLOADS[name].why, "metrics": across_runs(rs),
                         "checks": {"attempted": attempted, "failed": failed,
                                    "checks_failed_share": failed / attempted}}
        print(f"\n== {name}: {len(rs)} runs, checks attempted={attempted} failed={failed} "
              f"checks_failed_share={failed / attempted:.6g}")
        print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'unit':>12} "
              f"{'runs':>5} {'samples':>8}")
        for metric, s in summary[name]["metrics"].items():
            print(f"{metric:36} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                  f"{s['spread']:8.4f} {s['unit']:>12} {s['runs']:5d} {s['samples_per_run']:8g}")

    if args.baseline:
        # end-to-end and per-layer figures share one file, one section each
        doc = json.loads(args.baseline.read_text()) if args.baseline.is_file() else {}
        doc["environment"] = runs[names[0]][0]["environment"]
        doc["layer_map"] = LAYER_MAP
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update({"seconds": args.seconds, "seeds": seeds})
        section.setdefault("workloads", {}).update(summary)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
