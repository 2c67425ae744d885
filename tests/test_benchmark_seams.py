"""The benchmark's seams, checked for every workload: each one runs cut down
and traced by perfbench's own tracer, and must pass all of its checks and
call every entry point its `must_call` names. A renamed or moved call that
would leave a per-layer metric empty fails here, not only under
`python3 perfbench/run.py --trace 1`."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402
from checks import Checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# the shortest cuts that still reach each workload's steady state
CUTS = {
    "toy-churn": dict(episode_blocks=9, fidelity_blocks=2),
    "mid-steady": dict(episode_blocks=16, fidelity_blocks=1, scene_period=1),
    "toy-profile": dict(sampled_blocks=(3,), repeats=1, n_prompts=1, fidelity_blocks=6),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_passes_its_checks_and_covers_its_seams(name):
    wl = dataclasses.replace(WORKLOADS[name], **CUTS[name])
    checks, tracer = Checks(), Tracer()
    runner = bench.RolloutBench if wl.kind == "rollout" else bench.ProfileBench
    runner(bench.import_headkv(), wl, make_inputs(wl, 0), checks).run_traced(0, tracer, with_oracle=True)
    bench.check_coverage(checks, tracer.calls, wl.must_call)
    assert checks.failed == 0, dict(checks.failures)
    assert checks.attempted > len(wl.must_call)
