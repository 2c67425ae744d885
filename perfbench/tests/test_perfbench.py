"""Tests of the benchmark itself: inputs, tracer, coverage check and output
checks. Run with `python -m pytest -q perfbench/tests` from the repository root."""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
from checks import Checks, episodic_invariants, latents_finite, profile_report
from tracer import TARGETS, Tracer, _resolve
from workloads import WORKLOADS, make_inputs

hk = bench.import_headkv()


def small(name: str, **changes):
    """A workload cut down so one episode takes a fraction of a second."""
    return dataclasses.replace(WORKLOADS[name], **changes)


@pytest.fixture(scope="module")
def churn_traced():
    wl = small("toy-churn", episode_blocks=9, fidelity_blocks=2)
    checks = Checks()
    tracer = Tracer()
    series = bench.RolloutBench(hk, wl, make_inputs(wl, 0), checks).run_traced(0, tracer, with_oracle=True)
    return wl, checks, tracer, bench.summarise(series, True, checks.attempted, checks.failed)


def test_inputs_follow_the_seed_and_the_paper_split():
    for name, split in (("toy-churn", (6, 5)), ("mid-steady", (8, 6))):
        a, b = make_inputs(WORKLOADS[name], 7), make_inputs(WORKLOADS[name], 7)
        assert a == b
        assert (len(a.anchor), len(a.local)) == split
        assert not set(a.anchor) & set(a.local)
        assert make_inputs(WORKLOADS[name], 8) != a


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(targets=())
    outer = tracer.open(tracer.name_id("outer"))
    inner = tracer.open(tracer.name_id("inner"))
    leaf = tracer.open(tracer.name_id("leaf"))
    tracer.close(leaf)
    tracer.close(inner)
    tracer.close(outer)
    for i, (start, end) in enumerate(((0, 100), (10, 60), (20, 30))):
        tracer.span_start[i], tracer.span_end[i] = start, end
    total, self_ns = tracer.durations()
    assert total.tolist() == [100, 50, 10]
    assert self_ns.tolist() == [50, 40, 10]
    assert tracer.span_seconds("outer", ("inner",)) == [(100e-9, 50e-9)]


def test_uninstall_restores_every_entry_point():
    def current():
        return [_resolve(module, attr)[2] for _, module, attr, _ in TARGETS]

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(current(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))


def test_traced_run_is_correct_and_covers_the_workload(churn_traced):
    wl, checks, tracer, m = churn_traced
    bench.check_coverage(checks, tracer.calls, wl.must_call)
    assert checks.failed == 0, checks.failures
    assert m["tensor_ops.apply_rope_calls"][0] == 96          # 4 per head, 24 heads
    assert m["assembly.pack_scalars"][0] == 205 * 16 * 16 * 2
    assert m["episodic.compress_calls"][0] == 1
    assert m["profiling.engine_s"][0] == 0


def test_coverage_check_fails_when_a_caller_stops_resolving_the_wrapped_name(churn_traced):
    """Wrapping pack where rollout does not look it up (as after an import
    refactor) leaves the layer blank; the coverage check must notice."""
    wl, _, _, _ = churn_traced
    moved = [t if t[2] != "pack" else (t[0], "headkv.assembly", "pack", t[3]) for t in TARGETS]
    tracer = Tracer(targets=moved)
    checks = Checks()
    bench.RolloutBench(hk, wl, make_inputs(wl, 0), checks).run_traced(0, tracer, with_oracle=True)
    required = [t if t != "headkv.rollout.pack" else "headkv.assembly.pack" for t in wl.must_call]
    bench.check_coverage(checks, tracer.calls, required)
    assert checks.failures["coverage: headkv.assembly.pack called"] == 1
    assert set(checks.failures) == {"coverage: headkv.assembly.pack called",
                                    "pack_scalars equal slots x s x d x 2"}


def test_checks_fail_on_broken_rollout_invariants():
    wl = small("toy-churn", episode_blocks=8, fidelity_blocks=1)
    checks = Checks()
    rb = bench.RolloutBench(hk, wl, make_inputs(wl, 1), checks)
    weights, role_map = rb.setup()
    strategy = hk.HeadWiseStrategy(rb.cfg, weights, role_map, rb.hyper)
    engine = hk.RolloutEngine(weights, rb.cfg, rb.rope, strategy)
    for i in range(1, 9):
        block = engine.step(i, rb.prompts[i - 1])
        engine.commit(block, rb.prompts[i - 1])
    latents_finite(checks, block.frames)
    episodic_invariants(checks, strategy.episodic)
    assert checks.failed == 0 and checks.failed_share == 0.0
    assert strategy.episodic.summary_present

    frames = [fr.copy() for fr in block.frames]
    frames[1][3, 2] = np.nan
    latents_finite(checks, frames)

    memory = copy.deepcopy(strategy.episodic)
    memory.entries.append(memory.entries[0])           # overflow, summary not at 0 only
    lh = memory.memory_heads[0]
    memory.entries[1] = dataclasses.replace(memory.entries[1], slots=dict(memory.entries[1].slots))
    memory.entries[1].slots[lh] = memory.entries[2].slots[lh]   # one head diverges
    episodic_invariants(checks, memory)
    assert checks.failures == {
        "latents finite": 1,
        "episodic entries <= B_epi": 1,
        "summary only at index 0": 1,
        "same entry sequence on every memory head": 1,
    }
    assert checks.failed_share > 0.0


def test_checks_fail_on_broken_profile_invariants():
    wl = small("toy-profile", sampled_blocks=(3,), repeats=1, n_prompts=1)
    checks = Checks()
    pb = bench.ProfileBench(hk, wl, make_inputs(wl, 2), checks)
    report, role_map = pb.profile(pb.setup())
    profile_report(checks, report, role_map, role_map)
    assert checks.failed == 0

    skewed = copy.deepcopy(report)
    skewed.means[0, 0, 0] += 0.01
    demoted = copy.deepcopy(role_map)
    head = role_map.heads_of(hk.HeadRole.ANCHOR)[0]
    demoted.roles[head] = hk.HeadRole.MEMORY
    profile_report(checks, skewed, demoted, role_map)
    assert checks.failures == {
        "bucket proportions sum to 1": 1,
        "role counts equal the round_half_up quotas": 1,
        "same seed gives the same role map": 1,
    }


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    here = Path(bench.__file__).resolve().parent
    copy_dir = tmp_path / "perfbench"
    shutil.copytree(here, copy_dir, ignore=shutil.ignore_patterns("results", "tests", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-churn", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_result_metrics_match_the_benchmark_declaration(churn_traced):
    declared = json.loads((Path(bench.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    _, _, _, traced = churn_traced
    assert set(traced) == {m["name"] for m in declared["per_layer"]}
    series = {"setup_s": [1.0], "block_s": [0.01], "episode_blocks": [4], "episode_s": [0.04],
              "peak_rss_mb": [40.0], "frame_slots": [205], "fidelity": [0.99]}
    untraced = bench.summarise(series, False, 10, 0)
    gated = set(untraced) - set(bench.REPORT_ONLY)
    assert gated == {m["name"] for m in declared["end_to_end"]}
