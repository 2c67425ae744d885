"""The benchmark's seams, checked for every workload: each one runs cut down
and traced by perfbench's own tracer, and must pass all of its checks and
call every entry point its `must_call` names; on a rollout, every traced
block calls each per-head seam a fixed number of times per head. A renamed
or moved call that would leave a per-layer metric empty or miscounted fails
here, not only under `python3 perfbench/run.py --trace 1`."""

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


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    """(workload, its checks, the tracer) of one cut-down traced run."""
    wl = dataclasses.replace(WORKLOADS[request.param], **CUTS[request.param])
    checks, tracer = Checks(), Tracer()
    runner = bench.RolloutBench if wl.kind == "rollout" else bench.ProfileBench
    runner(bench.import_headkv(), wl, make_inputs(wl, 0), checks).run_traced(0, tracer, with_oracle=True)
    return wl, checks, tracer


def test_traced_workload_passes_its_checks_and_covers_its_seams(traced):
    wl, checks, tracer = traced
    bench.check_coverage(checks, tracer.calls, wl.must_call)
    assert checks.failed == 0, dict(checks.failures)
    assert checks.attempted > len(wl.must_call)


# calls per head and traced rollout block: assemble, two encode spans (the
# strategy's index rule and the query rotation), two spatial rotations in
# step plus the query and the packed key rotation, one history lookup
PER_HEAD_CALLS = {"assembly.assemble": 1, "assembly.encode": 2, "tensor_ops.apply_rope": 4,
                  "cache.history": 1}


@pytest.mark.parametrize("traced", sorted(n for n, wl in WORKLOADS.items() if wl.kind == "rollout"),
                         indirect=True)
def test_traced_rollout_calls_each_per_head_seam_per_head(traced):
    """A change to assembly that stops calling a seam once per head (or
    calls it twice) would leave its per-layer metric wrong without failing
    a coverage check."""
    wl, _, tracer = traced
    heads = wl.grid["L"] * wl.grid["H"]
    blocks = {block: row for block, row in tracer.by_block().items() if block is not None}
    assert len(blocks) >= wl.episode_blocks
    for block, row in blocks.items():
        assert {name: row[name + ".calls"] for name in PER_HEAD_CALLS} == \
               {name: n * heads for name, n in PER_HEAD_CALLS.items()}, block
