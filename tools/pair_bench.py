"""Interleaved benchmark pairs of two checkouts, and the verdict on a claimed gain.

    python3 tools/pair_bench.py PARENT CHANGE --workload toy-churn --pairs 10 \
        --seed 5000 [--seconds 30] [--claim block_ms_p90]

PARENT and CHANGE are checkouts of the repository (a clone or an extracted
archive of each commit). Pair k runs `perfbench/run.py --trace 0` in both at
seed SEED + k, the parent first in even pairs and the change first in odd
ones, so a slow spell of the machine does not always fall on one side. The
end-to-end metrics, whether each is better lower or higher and the bound by
which it may worsen come from PARENT/BENCHMARK.json, which is only read.

Printed: every pair's values; each side's median and quartiles per metric;
the change's wins, losses and ties per metric; for --claim, the verdict of
the paired rule (the change wins at least nine tenths of all pairs, ties
counting for neither side, and the medians differ by more than the
parent's quartile distance); and for every other metric whether the
change's median is worse than the parent's by more than its bound, or
unresolved because the parent's own quartile distance exceeds the bound.
Then, per metric, the median change-minus-parent difference over the pairs
the parent ran first and over those the change ran first: a gain that shows
in one order only is the run order's, not the change's.
Exits 1 when a run fails or reports "correct": false, 2 when the claim is
not met or a metric is worse than its bound, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WIN_SHARE = 0.9


@dataclass(frozen=True)
class Spread:
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def spread(values: list[float]) -> Spread:
    """Median and quartiles (statistics.quantiles, n=4) of one side's runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return Spread(med, med, med)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Spread(med, q1, q3)


@dataclass(frozen=True)
class Verdict:
    wins: int
    losses: int
    ties: int
    gain: float          # parent median - change median, signed so that > 0 is better
    parent_iqr: float

    @property
    def pairs(self) -> int:
        return self.wins + self.losses + self.ties

    @property
    def met(self) -> bool:
        return self.wins >= WIN_SHARE * self.pairs and self.gain > self.parent_iqr


def verdict(parent: list[float], change: list[float], better: str) -> Verdict:
    """The paired rule for a claimed gain on one metric: parent[k] and
    change[k] are pair k's values; better is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, at least one pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return Verdict(wins, losses, len(parent) - wins - losses, gain, spread(parent).iqr)


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """'worse' when the change's median is worse than the parent's by more
    than bound (relative to the parent's median); 'unresolved' when the
    parent's quartile distance exceeds that bound and not every change run
    beats every parent run; otherwise 'ok'."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    allowed = bound * abs(p.median)
    if sign * (c.median - p.median) > allowed:
        return "worse"
    every_run_better = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if p.iqr > allowed and not every_run_better:
        return "unresolved"
    return "ok"


def order_effect(parent: list[float], change: list[float], firsts: list[str]
                 ) -> tuple[float | None, float | None]:
    """Median change - parent difference over the pairs whose first run was
    the parent's, and over those whose first run was the change's (firsts[k]
    names pair k's first side); None for an order no pair ran in."""
    out = []
    for side in ("parent", "change"):
        diffs = [c - p for p, c, first in zip(parent, change, firsts) if first == side]
        out.append(statistics.median(diffs) if diffs else None)
    return out[0], out[1]


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` in checkout; its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{checkout}: seed {seed} reported correct=false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="pair k runs at seed + k")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--claim", help="end-to-end metric whose gain is claimed")
    args = ap.parse_args(argv)

    declared = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        ap.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    seconds = args.seconds or declared["run_seconds"]

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    firsts: list[str] = []
    print(f"pair_bench workload={args.workload} pairs={args.pairs} seconds={seconds} "
          f"seeds={args.seed}..{args.seed + args.pairs - 1}")
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        got = {}
        for side in order:
            try:
                got[side] = run(getattr(args, side), args.workload, seed, seconds)
            except RuntimeError as err:
                print(f"pair_bench: {err}", file=sys.stderr)
                return 1
        for side in ("parent", "change"):
            for name in metrics:
                values[side].setdefault(name, []).append(got[side][name])
        print(f"pair {k} seed {seed} first={order[0]}: " + ", ".join(
            f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}" for name in metrics), flush=True)

    print(f"\n{'metric':24} {'unit':>12} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'wins/losses/ties':>17} {'vs bound':>11}")
    passed = True
    for name, meta in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        v = verdict(parent, change, meta["better"])
        status = "claimed" if name == args.claim else regression(parent, change, meta["better"], meta["bound"])
        print(f"{name:24} {meta['unit']:>12} {_quartiles(parent):>36} {_quartiles(change):>36} "
              f"{f'{v.wins}/{v.losses}/{v.ties}':>17} {status:>11}")
        passed &= status != "worse"
        if name == args.claim:
            passed &= v.met
            print(f"claim {name}: {'met' if v.met else 'not met'}: the change wins {v.wins} of "
                  f"{v.pairs} pairs (needs {WIN_SHARE:.0%}); median gain {v.gain:.6g} {meta['unit']} "
                  f"against the parent's quartile distance {v.parent_iqr:.6g}")

    heads = [f"{side} first ({firsts.count(side)} pairs)" for side in ("parent", "change")]
    print(f"\nrun order: median change - parent difference over the pairs each side ran first\n"
          f"{'metric':24} {'unit':>12} {heads[0]:>26} {heads[1]:>26}")
    for name, meta in metrics.items():
        effect = order_effect(values["parent"][name], values["change"][name], firsts)
        cells = ["-" if e is None else f"{e:+.6g}" for e in effect]
        print(f"{name:24} {meta['unit']:>12} {cells[0]:>26} {cells[1]:>26}")
    return 0 if passed else 2


def _quartiles(values: list[float]) -> str:
    s = spread(values)
    return f"{s.median:.6g} [{s.q1:.6g}, {s.q3:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
