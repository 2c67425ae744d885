"""Workload definitions and the seeded input generator.

A workload fixes the grid, the strategy and its hyperparameters, the episode
length and the block of its single prompt switch. The seed only chooses the
inputs the program receives: the model seed, which heads get which role, and
the prompt texts. Every seed gives the same role counts, so the steady-state
frame-slot budget and the arithmetic per block do not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Paper split: 25% anchor, 20% local, the rest memory (6/5/13 on toy, 8/6/18 on mid).
ALPHA_ANCHOR = 0.25
TAU_LOCAL = 0.20

TOY_GRID = dict(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4)
MID_GRID = dict(L=4, H=8, d=32, s=64, f=3, grid_h=8, grid_w=8)

_WORDS = (
    "harbor", "dawn", "storm", "pier", "forest", "canyon", "market", "lantern",
    "glacier", "meadow", "tram", "lighthouse", "desert", "orchard", "bridge",
    "river", "cathedral", "rooftop", "village", "engine", "quarry", "garden",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                       # "rollout" or "profile"
    grid: dict
    scene_period: int = 1
    update_interval: int = 3
    episode_blocks: int = 0         # rollout: blocks per episode
    switch_block: int = 0           # rollout: block where the second prompt starts
    fidelity_blocks: int = 0        # prefix compared against the recompute oracle
    sampled_blocks: tuple[int, ...] = ()   # profile only
    repeats: int = 1                       # profile only
    n_prompts: int = 1                     # profile only
    window: int = 8                        # profile only: sink-window rollout
    n_sink: int = 1
    # wrapped entry points the traced run must see called at least once
    must_call: tuple[str, ...] = ()


_ROLLOUT_CALLS = (
    "headkv.rollout.RolloutEngine.step",
    "headkv.rollout.RolloutEngine.commit",
    "headkv.rollout.block_input",
    "headkv.model.ModelWeights.projection",
    "headkv.rollout.FrameKV",
    "headkv.rollout.apply_rope",
    "headkv.assembly.apply_rope",
    "headkv.assembly.softmax_rows",
    "headkv.rollout.assemble",
    "headkv.rollout.encode_queries",
    "headkv.rollout.pack",
    "headkv.rollout.packed_attention",
    "headkv.init_model",
    "headkv.reference.ReferenceGenerator.run",
)
_HEAD_WISE_CALLS = _ROLLOUT_CALLS + (
    "headkv.rollout.HeadWiseStrategy.history_frames",
    "headkv.rollout.reencode_temporal",
    "headkv.rollout.roll_after_block",
    "headkv.episodic.EpisodicMemory.try_admit",
    "headkv.episodic.EpisodicMemory.novelty_score",
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="toy-churn",
        why="toy grid, a new scene every block: every block admits a frame and "
            "compresses the episodic tier, so cache writes and per-head Python overhead weigh most",
        kind="rollout", grid=TOY_GRID, scene_period=1, update_interval=1,
        episode_blocks=48, switch_block=25, fidelity_blocks=12,
        must_call=_HEAD_WISE_CALLS + ("headkv.episodic.EpisodicMemory.compress_into_summary",),
    ),
    Workload(
        name="mid-steady",
        why="8x8 grid, d=32, rare admissions: packed attention and projections dominate, "
            "so slot and arithmetic savings reach wall time; bypass workload for episodic",
        kind="rollout", grid=MID_GRID, scene_period=9, update_interval=3,
        episode_blocks=64, switch_block=33, fidelity_blocks=4,
        must_call=_HEAD_WISE_CALLS,
    ),
    Workload(
        name="toy-profile",
        why="profile_rollout plus classify_heads on the sink-window rollout: the only "
            "workload for profiling and global-index window assembly; bypasses episodic",
        kind="profile", grid=TOY_GRID, sampled_blocks=(3, 8, 13, 18), repeats=2,
        n_prompts=2, fidelity_blocks=12,
        must_call=_ROLLOUT_CALLS + (
            "headkv.rollout.WindowStrategy.history_frames",
            "headkv.rollout.WindowStrategy.roll",
            "headkv.rollout.encode_temporal",
            "headkv.profiling.softmax_rows",
            "headkv.profile_rollout",
        ),
    ),
)}


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def role_quota(n_heads: int) -> tuple[int, int]:
    """(anchor, local) head counts of the paper split on a grid of n_heads."""
    return round_half_up(ALPHA_ANCHOR * n_heads), round_half_up(TAU_LOCAL * n_heads)


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one run, derived from the seed."""

    model_seed: int
    anchor: tuple[tuple[int, int], ...]
    local: tuple[tuple[int, int], ...]
    prompts: tuple[str, ...]

    def schedule(self, switch_block: int) -> list[tuple[str, int]]:
        """Rollout prompt schedule: the first prompt, then the second from switch_block."""
        return [(self.prompts[0], 1), (self.prompts[1], switch_block)]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    heads = [(l, h) for l in range(workload.grid["L"]) for h in range(workload.grid["H"])]
    n_anchor, n_local = role_quota(len(heads))
    # profiling derives its own role map, so only rollouts receive one
    chosen = rng.sample(heads, n_anchor + n_local) if workload.kind == "rollout" else []
    n_prompts = max(2, workload.n_prompts)
    prompts = tuple(
        f"{rng.choice(_WORDS)} near the {rng.choice(_WORDS)}, take {k}" for k in range(n_prompts)
    )
    return Inputs(
        model_seed=rng.randrange(2**31),
        anchor=tuple(sorted(chosen[:n_anchor])),
        local=tuple(sorted(chosen[n_anchor:])),
        prompts=prompts,
    )


def _moves(*pairs: tuple[str, str], holds: tuple[str, ...] = ()) -> dict:
    """Which end-to-end metric a layer should move on which workload, and the
    workloads where it should move nothing."""
    moves: dict[str, list[str]] = {}
    for workload, metric in pairs:
        moves.setdefault(workload, []).append(metric)
    return {"moves": moves, "holds": list(holds)}


_ROPE = _moves(("toy-churn", "block_ms_p50"), ("mid-steady", "block_ms_p50"),
               ("toy-profile", "block_ms_p50"))
_CHURN = _moves(("toy-churn", "block_ms_p50"))
_MID = _moves(("mid-steady", "block_ms_p50"))
_EPISODIC = _moves(("toy-churn", "block_ms_p90"), ("toy-churn", "blocks_per_s"),
                   holds=("mid-steady", "toy-profile"))
_PROFILING = _moves(("toy-profile", "block_ms_p50"), holds=("toy-churn", "mid-steady"))

# Per-layer metric -> the end-to-end metrics it should move, by workload.
LAYER_MAP: dict[str, dict] = {
    "rollout.step_ms": _MID,
    "rollout.step_self_ms": _MID,
    "rollout.commit_ms": _moves(("toy-churn", "block_ms_p50"), ("toy-churn", "blocks_per_s"),
                                holds=("mid-steady",)),
    "rollout.commit_self_ms": _moves(("toy-churn", "block_ms_p50"), ("toy-churn", "blocks_per_s"),
                                     holds=("mid-steady",)),
    "rollout.projection_ms": _MID,
    "rollout.framekv_ms": _CHURN,
    "tensor_ops.apply_rope_ms": _ROPE,
    "tensor_ops.apply_rope_calls": _ROPE,
    "tensor_ops.softmax_rows_ms": _ROPE,
    "assembly.assemble_ms": _CHURN,
    "assembly.encode_ms": _CHURN,
    "assembly.pack_ms": _CHURN,
    "assembly.pack_scalars": _CHURN,
    "assembly.packed_attention_ms": _MID,
    "assembly.pack_bytes_computed": _MID,
    "assembly.attention_flops_computed": _MID,
    "cache.history_ms": _CHURN,
    "cache.roll_ms": _CHURN,
    "episodic.try_admit_ms": _EPISODIC,
    "episodic.novelty_ms": _EPISODIC,
    "episodic.compress_ms": _EPISODIC,
    "episodic.try_admit_calls": _EPISODIC,
    "episodic.compress_calls": _EPISODIC,
    "episodic.admit_ratio": _EPISODIC,
    "episodic.admit_attempts": _EPISODIC,
    "model.init_model_s": _moves(*((w, "setup_s") for w in ("toy-churn", "mid-steady", "toy-profile"))),
    "model.block_input_ms": _moves(("toy-churn", "block_ms_p50"), ("mid-steady", "block_ms_p50"),
                                   ("toy-profile", "block_ms_p50")),
    "profiling.measure_self_s": _PROFILING,
    "profiling.engine_s": _PROFILING,
    "reference.oracle_s": _moves(holds=("toy-churn", "mid-steady", "toy-profile")),
    "trace.overhead_pct": _moves(holds=("toy-churn", "mid-steady", "toy-profile")),
}
