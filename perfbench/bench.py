"""Benchmark worker: runs one workload and records raw samples.

run.py starts one worker per CPU (at most two), each pinned to its CPU and
running the same workload and seed; `summarise` pools their samples into
the metrics, so one run averages over the CPUs, whose speeds can differ by
a third for minutes on a shared machine.

A worker imports headkv from the checkout's src/, builds the seeded inputs,
measures for --seconds seconds of whole episodes (at least one) and checks
the outputs. Untraced, it records the end-to-end samples. Traced, it
alternates untraced and traced episodes on identical inputs and records the
per-layer samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks as chk  # noqa: E402
from checks import Checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ALPHA_ANCHOR, TAU_LOCAL, WORKLOADS, Inputs, Workload, make_inputs  # noqa: E402

SETUP_REPEATS = 15
perf = time.perf_counter

# Printed and recorded but left out of the JSON result, so no bound applies:
# the machine's speed changes by up to half for seconds to minutes at a time,
# and the median and the mean follow whichever speed held most of a run.
# Over ten interleaved runs the toy-churn median spread by 0.32 of itself,
# p90 by 0.16 (the slow spells always reach the tail).
REPORT_ONLY = ("block_ms_p50", "blocks_per_s")

# (metric, per-block row key, unit, reduction over blocks)
PER_BLOCK_METRICS = (
    ("rollout.step_ms", "rollout.step", "ms", "median"),
    ("rollout.step_self_ms", "rollout.step.self", "ms", "median"),
    ("rollout.commit_ms", "rollout.commit", "ms", "median"),
    ("rollout.commit_self_ms", "rollout.commit.self", "ms", "median"),
    ("rollout.projection_ms", "rollout.projection", "ms", "median"),
    ("rollout.framekv_ms", "rollout.framekv", "ms", "median"),
    ("tensor_ops.apply_rope_ms", "tensor_ops.apply_rope", "ms", "median"),
    ("tensor_ops.apply_rope_calls", "tensor_ops.apply_rope.calls", "count", "mean"),
    ("tensor_ops.softmax_rows_ms", "tensor_ops.softmax_rows", "ms", "median"),
    ("assembly.assemble_ms", "assembly.assemble", "ms", "median"),
    ("assembly.encode_ms", "assembly.encode", "ms", "median"),
    ("assembly.pack_ms", "assembly.pack", "ms", "median"),
    ("assembly.pack_scalars", "assembly.pack_scalars", "count", "mean"),
    ("assembly.packed_attention_ms", "assembly.packed_attention", "ms", "median"),
    ("assembly.pack_bytes_computed", "assembly.pack_bytes_computed", "bytes", "mean"),
    ("assembly.attention_flops_computed", "assembly.attention_flops_computed", "flop", "mean"),
    ("cache.history_ms", "cache.history", "ms", "median"),
    ("cache.roll_ms", "cache.roll", "ms", "median"),
    ("episodic.try_admit_ms", "episodic.try_admit", "ms", "median"),
    ("episodic.novelty_ms", "episodic.novelty", "ms", "median"),
    ("episodic.compress_ms", "episodic.compress", "ms", "median"),
    ("episodic.try_admit_calls", "episodic.try_admit.calls", "count", "mean"),
    ("episodic.compress_calls", "episodic.compress.calls", "count", "mean"),
    ("model.block_input_ms", "model.block_input", "ms", "median"),
)


def import_headkv():
    src = ROOT / "src"
    if not (src / "headkv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: headkv sources not found under {src}")
    sys.path.insert(0, str(src))
    import headkv
    import headkv.reference
    import headkv.roles

    return headkv


# -- environment -------------------------------------------------------------------


def _blas_threads() -> str:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return str(fn())
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# -- helpers -------------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def p90(xs) -> float:
    return float(np.percentile(xs, 90)) if len(xs) else 0.0


def digest(frames) -> str:
    h = hashlib.blake2b(digest_size=16)
    for fr in frames:
        h.update(np.ascontiguousarray(fr).tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class installed:
    """Tracer wrappers in place for the body of the with statement only."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        return self.tracer

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


Series = dict[str, list[float]]


def new_series() -> Series:
    return defaultdict(list)


def layer_series(tracer: Tracer, rows: list[dict], divisor: int, out: Series) -> None:
    """Per-layer samples from per-block (or per-call) trace rows; each row is
    divided by the number of blocks it covers."""
    for metric, key, _, _ in PER_BLOCK_METRICS:
        out[metric].extend(row.get(key, 0.0) / divisor for row in rows)
    out["admit_attempts"].append(sum(row.get("episodic.try_admit.calls", 0) for row in rows))
    out["admitted"].append(sum(row.get("episodic.admitted", 0) for row in rows))
    out["model.init_model_s"].extend(d for d, _ in tracer.span_seconds("model.init_model"))
    out["reference.oracle_s"].extend(d for d, _ in tracer.span_seconds("reference.oracle"))
    for total, engine in tracer.span_seconds("profiling.profile", ("rollout.step", "rollout.commit")):
        out["profiling.measure_self_s"].append(total - engine)
        out["profiling.engine_s"].append(engine)


def check_coverage(checks: Checks, calls: dict[str, int], required) -> None:
    """A wrapped entry point the workload must exercise but that recorded no
    call means its callers no longer resolve the wrapped name: fail the run."""
    for target in required:
        checks.check(calls.get(target, 0) > 0, f"coverage: {target} called")


# -- rollout workloads -------------------------------------------------------------------


@dataclass
class Episode:
    times: list[float] = field(default_factory=list)      # step + commit seconds per block
    slots: list[int] = field(default_factory=list)        # frames attended per block, untraced only
    digests: list[str] = field(default_factory=list)
    frames: list[list[np.ndarray]] = field(default_factory=list)  # kept prefix
    steady_from: int = 0        # first block at role capacity (1-based), 0 if never reached

    def steady_times(self) -> list[float]:
        return self.times[self.steady_from - 1:] if self.steady_from else []


class RolloutBench:
    """Head-wise rollout: setup, then episodes of step + commit per block."""

    def __init__(self, hk, wl: Workload, inputs: Inputs, checks: Checks):
        self.hk, self.wl, self.inputs, self.checks = hk, wl, inputs, checks
        self.cfg = hk.ModelConfig(**wl.grid, seed=inputs.model_seed, scene_period=wl.scene_period)
        self.rope = hk.RopeParams.default_for(self.cfg.d)
        self.hyper = hk.HeadWiseHyper(update_interval=wl.update_interval)
        self.schedule = inputs.schedule(wl.switch_block)
        self.prompts = [inputs.prompts[0] if i < wl.switch_block else inputs.prompts[1]
                        for i in range(1, wl.episode_blocks + 1)]

    def setup(self):
        """Model, role map, strategy and engine construction: what setup_s times."""
        hk, cfg = self.hk, self.cfg
        weights = hk.init_model(cfg)
        role_map = hk.roles.role_map_from_lists(
            cfg.L, cfg.H, anchor=list(self.inputs.anchor), local=list(self.inputs.local),
            alpha_anchor=ALPHA_ANCHOR, tau_local=TAU_LOCAL)
        strategy = hk.HeadWiseStrategy(cfg, weights, role_map, self.hyper)
        hk.RolloutEngine(weights, cfg, self.rope, strategy)
        return weights, role_map

    def budget(self, role_map) -> int:
        return self.hk.frame_slots(role_map, self.hyper.b_epi, self.hyper.b_fast, self.cfg.f).total

    def episode(self, weights, role_map, tracer: Tracer | None = None, episode_no: int = 0,
                keep_frames: int = 0, keep_digests: bool = False,
                deadline: float = float("inf"), n_blocks: int | None = None) -> Episode:
        """One rollout of n_blocks (default episode_blocks) blocks, cut short at the deadline.
        Untraced episodes count the frames each step attends from the
        strategy; traced ones leave that to the trace, so the count adds no
        spans. Whole-episode checks apply to complete episodes only."""
        hk, cfg, checks = self.hk, self.cfg, self.checks
        strategy = hk.HeadWiseStrategy(cfg, weights, role_map, self.hyper)
        engine = hk.RolloutEngine(weights, cfg, self.rope, strategy)
        budget = self.budget(role_map)
        ep = Episode()
        for i in range(1, (self.wl.episode_blocks if n_blocks is None else n_blocks) + 1):
            if perf() >= deadline:
                return ep
            prompt = self.prompts[i - 1]
            if tracer is None:
                slots = chk.frame_slots_attended(strategy, cfg.heads, cfg.f)
                ep.slots.append(slots)
                if not ep.steady_from and slots == budget:
                    ep.steady_from = i
            else:
                tracer.block = (episode_no, i)
            t0 = perf()
            block = engine.step(i, prompt)
            engine.commit(block, prompt)
            ep.times.append(perf() - t0)
            if tracer is not None:
                tracer.block = None
            chk.latents_finite(checks, block.frames)
            chk.episodic_invariants(checks, strategy.episodic)
            if keep_digests:
                ep.digests.append(digest(block.frames))
            if i <= keep_frames:
                ep.frames.append(block.frames)
        if tracer is None:
            steady = ep.slots[ep.steady_from - 1:] if ep.steady_from else []
            checks.check(bool(steady), "episode reaches steady state")
            checks.check(all(s == budget for s in steady), "steady frame slots equal frame_slots().total")
        return ep

    def fidelity(self, weights, frames: list[list[np.ndarray]], tracer: Tracer | None = None) -> list[float]:
        """Token cosine of each kept block against the recompute oracle."""
        hk = self.hk
        oracle = hk.reference.ReferenceGenerator(weights, self.cfg, self.rope)
        with installed(tracer):
            ref_blocks = oracle.run(len(frames), self.schedule)
        return [hk.reference.token_cosine_fidelity(fr, ref.frames) for fr, ref in zip(frames, ref_blocks)]

    def run(self, seconds: float, with_oracle: bool) -> Series:
        out = new_series()
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            weights, role_map = self.setup()
            out["setup_s"].append(perf() - t0)
        # The first episode always completes; later ones stop at the deadline,
        # so parallel workers stop measuring together, within one block.
        deadline = perf() + seconds
        episodes = [self.episode(weights, role_map, keep_frames=self.wl.fidelity_blocks if with_oracle else 0)]
        while perf() < deadline:
            episodes.append(self.episode(weights, role_map, deadline=deadline))
        out["peak_rss_mb"].append(peak_rss_mb())
        for ep in episodes:
            out["block_s"].extend(ep.steady_times())
            out["frame_slots"].extend(ep.slots[ep.steady_from - 1:] if ep.steady_from else [])
            if len(ep.times) == self.wl.episode_blocks:
                out["episode_s"].append(sum(ep.times))
                out["episode_blocks"].append(len(ep.times))
        if with_oracle:
            out["fidelity"].extend(self.fidelity(weights, episodes[0].frames))
        return out

    def run_traced(self, seconds: float, tracer: Tracer, with_oracle: bool) -> Series:
        out = new_series()
        with installed(tracer):
            for _ in range(SETUP_REPEATS):
                weights, role_map = self.setup()
        traced_weights = tracer.traced_weights(weights)
        plain: list[Episode] = []
        traced: list[Episode] = []
        keep = self.wl.fidelity_blocks if with_oracle else 0
        deadline = perf() + seconds
        while not plain or perf() < deadline:
            # the traced episode repeats exactly the blocks its untraced partner ran
            ref = self.episode(weights, role_map, keep_frames=0 if plain else keep, keep_digests=True,
                               deadline=deadline if plain else float("inf"))
            with installed(tracer):
                ep = self.episode(traced_weights, role_map, tracer=tracer, episode_no=len(traced),
                                  keep_digests=True, n_blocks=len(ref.times))
            ep.steady_from = ref.steady_from
            self.checks.check(ep.digests == ref.digests, "traced and untraced latents bit-identical")
            plain.append(ref)
            traced.append(ep)
        if with_oracle:
            self.fidelity(weights, plain[0].frames, tracer=tracer)

        budget = self.budget(role_map)
        rows = tracer.by_block()
        steady_rows = [rows[(e, i)] for e, ep in enumerate(traced) if ep.steady_from
                       for i in range(ep.steady_from, len(ep.times) + 1)]
        unit = self.cfg.s * self.cfg.d * 2
        for row in steady_rows:
            frames = row.get("assembly.frames", 0)
            self.checks.check(frames == budget, "traced steady frame slots equal frame_slots().total")
            self.checks.check(row.get("assembly.pack_scalars", 0) == frames * unit,
                              "pack_scalars equal slots x s x d x 2")
        layer_series(tracer, steady_rows, 1, out)
        out["traced_block_s"].extend(t for ep in traced for t in ep.steady_times())
        out["plain_block_s"].extend(t for ep in plain for t in ep.steady_times())
        return out


# -- profiling workload -------------------------------------------------------------------


class ProfileBench:
    """profile_rollout + classify_heads calls; the sink-window rollout it
    drives is also run on its own for the slot count and fidelity."""

    def __init__(self, hk, wl: Workload, inputs: Inputs, checks: Checks):
        self.hk, self.wl, self.inputs, self.checks = hk, wl, inputs, checks
        self.cfg = hk.ModelConfig(**wl.grid, seed=inputs.model_seed, scene_period=wl.scene_period)
        self.rope = hk.RopeParams.default_for(self.cfg.d)
        self.prompts = list(inputs.prompts[:wl.n_prompts])
        self.blocks_per_call = max(wl.sampled_blocks) * len(self.prompts)

    def setup(self):
        return self.hk.init_model(self.cfg)

    def profile(self, weights):
        hk, wl = self.hk, self.wl
        report = hk.profile_rollout(weights, self.cfg, self.rope, sampled_blocks=list(wl.sampled_blocks),
                                    repeats=wl.repeats, prompts=self.prompts,
                                    window=wl.window, n_sink=wl.n_sink)
        return report, hk.classify_heads(report, ALPHA_ANCHOR, TAU_LOCAL)

    def window_rollout(self, weights, out: Series, tracer: Tracer | None = None) -> None:
        """Sink-window rollout of fidelity_blocks blocks: steady frames
        attended per block, and fidelity against the recompute oracle."""
        hk, cfg, wl, checks = self.hk, self.cfg, self.wl, self.checks
        strategy = hk.WindowStrategy(cfg, window=wl.window, n_sink=wl.n_sink)
        engine = hk.RolloutEngine(weights, cfg, self.rope, strategy)
        expected = len(cfg.heads) * (wl.n_sink + wl.window)
        prompt = self.prompts[0]
        slots, frames = [], []
        for i in range(1, wl.fidelity_blocks + 1):
            slots.append(chk.frame_slots_attended(strategy, cfg.heads, cfg.f))
            block = engine.step(i, prompt)
            engine.commit(block, prompt)
            chk.latents_finite(checks, block.frames)
            frames.append(block.frames)
        steady = slots[slots.index(expected):] if expected in slots else []
        checks.check(bool(steady) and all(s == expected for s in steady),
                     "steady window frame slots equal heads x (n_sink + W)")
        out["frame_slots"].extend(steady)
        oracle = hk.reference.ReferenceGenerator(weights, cfg, self.rope)
        with installed(tracer):
            ref_blocks = oracle.run(len(frames), [(prompt, 1)])
        out["fidelity"].extend(hk.reference.token_cosine_fidelity(fr, ref.frames)
                               for fr, ref in zip(frames, ref_blocks))

    def run(self, seconds: float, with_oracle: bool) -> Series:
        out = new_series()
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            weights = self.setup()
            out["setup_s"].append(perf() - t0)
        first = None
        deadline = perf() + seconds
        while not out["episode_s"] or perf() < deadline:
            t0 = perf()
            report, role_map = self.profile(weights)
            elapsed = perf() - t0
            out["episode_s"].append(elapsed)
            out["episode_blocks"].append(self.blocks_per_call)
            out["block_s"].append(elapsed / self.blocks_per_call)
            chk.profile_report(self.checks, report, role_map, first)
            first = first or role_map
        out["peak_rss_mb"].append(peak_rss_mb())
        if with_oracle:
            self.window_rollout(weights, out)
        return out

    def run_traced(self, seconds: float, tracer: Tracer, with_oracle: bool) -> Series:
        out = new_series()
        with installed(tracer):
            for _ in range(SETUP_REPEATS):
                weights = self.setup()
        traced_weights = tracer.traced_weights(weights)
        first = None
        calls = 0
        deadline = perf() + seconds
        while not calls or perf() < deadline:
            t0 = perf()
            report, role_map = self.profile(weights)
            out["plain_block_s"].append((perf() - t0) / self.blocks_per_call)
            chk.profile_report(self.checks, report, role_map, first)
            first = first or role_map
            with installed(tracer):
                tracer.block = calls
                t0 = perf()
                traced_report, traced_map = self.profile(traced_weights)
                out["traced_block_s"].append((perf() - t0) / self.blocks_per_call)
                tracer.block = None
            self.checks.check(traced_report.means.tobytes() == report.means.tobytes()
                              and traced_map.roles == role_map.roles,
                              "traced and untraced profiles bit-identical")
            calls += 1
        if with_oracle:
            self.window_rollout(weights, new_series(), tracer=tracer)
        rows = tracer.by_block()
        layer_series(tracer, [rows[c] for c in range(calls)], self.blocks_per_call, out)
        return out


# -- pooling -----------------------------------------------------------------------------


def summarise(series: Series, trace: bool, checks_attempted: int, checks_failed: int) -> dict:
    """Metrics from the pooled samples of every worker: name -> (value, unit, samples)."""
    m: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, samples):
        m[name] = (float(value), unit, int(samples))

    s = series
    if not trace:
        put("setup_s", median(s["setup_s"]), "s", len(s["setup_s"]))
        block_ms = [1e3 * t for t in s["block_s"]]
        put("block_ms_p50", median(block_ms), "ms", len(block_ms))
        put("block_ms_p90", p90(block_ms), "ms", len(block_ms))
        put("blocks_per_s", sum(s["episode_blocks"]) / sum(s["episode_s"]), "blocks/s",
            sum(s["episode_blocks"]))
        put("peak_rss_mb", max(s["peak_rss_mb"]), "MB", len(s["peak_rss_mb"]))
        put("frame_slots_per_block", median(s["frame_slots"]), "count", len(s["frame_slots"]))
        put("fidelity", float(np.mean(s["fidelity"])), "token_cosine", len(s["fidelity"]))
        put("checks_passed_share", 1.0 - checks_failed / checks_attempted, "share", checks_attempted)
        return m
    for metric, _, unit, how in PER_BLOCK_METRICS:
        values = s[metric]
        put(metric, median(values) if how == "median" else float(np.mean(values)), unit, len(values))
    attempts = sum(s["admit_attempts"])
    put("episodic.admit_ratio", sum(s["admitted"]) / attempts if attempts else 0.0, "share", attempts)
    put("episodic.admit_attempts", attempts, "count", len(s["rollout.step_ms"]))
    for metric in ("model.init_model_s", "reference.oracle_s",
                   "profiling.measure_self_s", "profiling.engine_s"):
        put(metric, median(s[metric]), "s", len(s[metric]))
    put("trace.overhead_pct", 100.0 * (median(s["traced_block_s"]) / median(s["plain_block_s"]) - 1.0),
        "%", len(s["traced_block_s"]))
    return m


# -- worker entry point -------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in 1..120")
    return args


def worker(argv=None) -> int:
    """bench.py <run.py arguments> --cpu N --worker K --out PATH: pin to CPU N,
    run the workload and write the raw samples to PATH. Worker 0 also runs
    the oracle and writes the spans of a traced run."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    own, rest = ap.parse_known_args(argv)
    args = parse_args(rest)
    os.sched_setaffinity(0, {own.cpu})
    hk = import_headkv()
    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed)
    checks = Checks()
    bench = (RolloutBench if wl.kind == "rollout" else ProfileBench)(hk, wl, inputs, checks)
    lead = own.worker == 0
    calls: dict[str, int] = {}
    if args.trace:
        tracer = Tracer()
        series = bench.run_traced(args.seconds, tracer, with_oracle=lead)
        calls = dict(tracer.calls)
        if lead:
            tracer.dump(RESULTS / f"{wl.name}.spans.jsonl")
    else:
        series = bench.run(args.seconds, with_oracle=lead)
    own.out.write_text(json.dumps({
        "environment": environment(),
        "inputs": inputs.__dict__,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": dict(checks.failures)},
        "calls": calls,
        "series": series,
    }), encoding="utf-8")
    return 0


def report(args: argparse.Namespace, workers: list[dict]) -> int:
    """Pool the workers' samples, print the report and, last, the JSON result."""
    wl = WORKLOADS[args.workload]
    checks = Checks()
    for w in workers:
        checks.attempted += w["checks"]["attempted"]
        checks.failed += w["checks"]["failed"]
        checks.failures.update(w["checks"]["failures"])
    series: Series = new_series()
    calls: dict[str, int] = defaultdict(int)
    for w in workers:
        for key, values in w["series"].items():
            series[key].extend(values)
        for target, n in w["calls"].items():
            calls[target] += n
    if args.trace:
        check_coverage(checks, calls, wl.must_call)
    metrics = summarise(series, bool(args.trace), checks.attempted, checks.failed)

    env = dict(workers[0]["environment"], workers=len(workers))
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"environment: {json.dumps(env)}")
    print(f"inputs: {json.dumps(workers[0]['inputs'])}")
    print(f"{'metric':36} {'value':>16} {'unit':>12} {'samples':>8}")
    for name, (value, unit, samples) in metrics.items():
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"{name:36} {value:16.6g} {unit:>12} {samples:8d}{note}")
    print(f"checks: attempted={checks.attempted} failed={checks.failed} "
          f"checks_failed_share={checks.failed_share:.6g}")
    for label, count in sorted(checks.failures.items()):
        print(f"  FAILED {count}x: {label}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": workers[0]["inputs"],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "checks_failed_share": checks.failed_share, "failures": dict(checks.failures)},
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(worker())
