"""Head-role profiling: per-head attention-mass buckets over sink / middle /
current temporal regions, role classification by threshold quotas, and the
cross-run core stability ratio.

The profiled rollout advances under a sink-plus-sliding-window cache so the
substrate sees long context, while the sampled-block measurement computes
each head's attention map against the full archived key history with global
frame indices. The archive holds every committed key already rotated at its
global frame: keys never change after commit and RoPE acts row by row, so
each block is rotated once, not once per later sample. Maps are reduced to
bucket sums on the fly and never kept beyond one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .model import ModelConfig, ModelWeights, measurement_perturbation
from .roles import HeadRole, HeadRoleMap, role_map_from_lists
from .rollout import LatentBlock, RolloutEngine, WindowStrategy
from .tensor_ops import RopeParams, apply_rope, frame_rotation, softmax_rows


@dataclass(frozen=True)
class BucketProportions:
    p_sink: float
    p_middle: float
    p_current: float

    def __post_init__(self) -> None:
        total = self.p_sink + self.p_middle + self.p_current
        # negated comparisons, so that a NaN proportion fails them too
        if not min(self.p_sink, self.p_middle, self.p_current) >= -1e-12:
            raise ShapeError("bucket proportions must be non-negative")
        if not abs(total - 1.0) <= 1e-9:
            raise ShapeError(f"bucket proportions sum to {total}, expected 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_sink, self.p_middle, self.p_current)


def bucket_proportions(a: np.ndarray, s: int, i: int) -> BucketProportions:
    """Attention mass per temporal bucket of an (f*s) x (f*i*s) row-stochastic
    map, f = rows // s: sink = first frame, current = the block's last f
    frames, middle = everything between. Normalized by the f*s query rows."""
    if i < 2:
        raise ConfigError(f"bucket proportions need a middle bucket; block index {i} < 2")
    a = np.asarray(a)
    f = a.shape[0] // s if a.ndim == 2 else 0
    if f < 1 or a.shape != (f * s, f * i * s):
        raise ShapeError(f"attention map must be (f*{s}, f*{i * s}) for some f >= 1, got {a.shape}")
    sink_end = s
    current_start = (f * i - f) * s
    norm = 1.0 / (f * s)
    p_sink = float(a[:, :sink_end].sum()) * norm
    p_middle = float(a[:, sink_end:current_start].sum()) * norm
    p_current = float(a[:, current_start:].sum()) * norm
    return BucketProportions(p_sink, p_middle, p_current)


@dataclass
class ProfileReport:
    """Mean bucket proportions per (layer, head)."""

    layers: int
    heads: int
    means: np.ndarray            # (L, H, 3): sink, middle, current

    def proportions(self, layer: int, head: int) -> BucketProportions:
        p = self.means[layer, head]
        return BucketProportions(float(p[0]), float(p[1]), float(p[2]))


def profile_rollout(weights: ModelWeights, config: ModelConfig, rope: RopeParams,
                    sampled_blocks: list[int], repeats: int, prompts: list[str],
                    window: int = 8, n_sink: int = 1, perturb_offset: int = 0) -> ProfileReport:
    """Mean bucket proportions over (sampled blocks x repeats x prompts).

    Repeat r measures under perturbation stream perturb_offset + r: stream 0
    is the block exactly as generated, and any other stream re-runs the block
    with a seeded input perturbation against the frozen cache state,
    emulating repeated per-block statistics. The stability harness's repeats
    axis varies perturb_offset between runs.
    """
    if not sampled_blocks:
        raise ConfigError("profiling needs at least one sampled block")
    if min(sampled_blocks) < 3:
        raise ConfigError(f"sampled blocks must be >= 3, got {sorted(sampled_blocks)}")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not prompts:
        raise ConfigError("profiling needs at least one prompt")

    sampled = sorted(set(sampled_blocks))
    n_blocks = max(sampled)
    f, s = config.f, config.s
    sums = np.zeros((config.L, config.H, 3))
    # every (layer, head)'s keys at their global frames, rows f*(i-1)*s ..
    # f*i*s-1 for block i; each prompt overwrites the rows it reads
    archive = np.empty((config.L, config.H, n_blocks * f * s, config.d))

    for prompt in prompts:
        strategy = WindowStrategy(config, window=window, n_sink=n_sink)
        engine = RolloutEngine(weights, config, rope, strategy)
        for i in range(1, n_blocks + 1):
            block = engine.step(i, prompt)
            archived = None                  # the block whose keys fill block i's rows
            if i in sampled:
                for r in range(repeats):
                    stream = perturb_offset + r
                    if stream == 0:
                        probe = block
                    else:
                        perturb = measurement_perturbation(config, i, stream)
                        probe = engine.step(i, prompt, perturb=perturb)
                    _archive_keys(archive, probe, config, rope)
                    archived = probe
                    _accumulate_block(sums, archive, probe, config, rope)
            engine.commit(block, prompt)
            if archived is not block and i < n_blocks:
                _archive_keys(archive, block, config, rope)

    return ProfileReport(layers=config.L, heads=config.H, means=sums / (len(prompts) * len(sampled) * repeats))


def _archive_keys(archive: np.ndarray, block: LatentBlock, config: ModelConfig,
                  rope: RopeParams) -> None:
    """Write each head's keys of the block into its archive rows and rotate
    them there, at the block's global frames."""
    i = block.index
    f, s = config.f, config.s
    rows = slice(f * (i - 1) * s, f * i * s)
    rot = frame_rotation(tuple(range(f * (i - 1), f * i)), s, rope)
    for l, h in config.heads:
        dest = archive[l, h, rows]
        np.concatenate([frame[(l, h)].keys for frame in block.kv], out=dest)
        apply_rope(dest, rot, out=dest)


def _accumulate_block(sums: np.ndarray, archive: np.ndarray, block: LatentBlock,
                      config: ModelConfig, rope: RopeParams) -> None:
    """Full-context attention map per head over the archived keys of every
    frame up to and including the block's own, reduced to bucket sums."""
    i = block.index
    f, s = config.f, config.s
    q_rot = frame_rotation(tuple(range(f * (i - 1), f * i)), s, rope)
    scale = math.sqrt(config.d)
    for (l, h), q in block.q_spatial.items():
        scores = apply_rope(q, q_rot) @ archive[l, h, :f * i * s].T
        scores /= scale
        p = bucket_proportions(softmax_rows(scores, out=scores), s, i)
        sums[l, h, 0] += p.p_sink
        sums[l, h, 1] += p.p_middle
        sums[l, h, 2] += p.p_current


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def classify_heads(report: ProfileReport, alpha_anchor: float, tau_local: float) -> HeadRoleMap:
    """Quota-based role assignment: the round(alpha*L*H) heads with highest
    sink mass become anchors; among the rest, the round(tau*L*H) with highest
    current mass become local; the remainder are memory. Ties break to the
    lexicographically smallest (layer, head)."""
    if alpha_anchor <= 0 or tau_local <= 0:
        raise ConfigError("alpha_anchor and tau_local must be positive")
    if alpha_anchor + tau_local >= 1:
        raise ConfigError(
            f"alpha_anchor + tau_local must be < 1, got {alpha_anchor + tau_local}"
        )
    total = report.layers * report.heads
    n_anchor = round_half_up(alpha_anchor * total)
    n_local = round_half_up(tau_local * total)

    all_heads = [(l, h) for l in range(report.layers) for h in range(report.heads)]
    by_sink = sorted(all_heads, key=lambda lh: (-report.means[lh[0], lh[1], 0], lh))
    anchors = set(by_sink[:n_anchor])
    rest = [lh for lh in all_heads if lh not in anchors]
    by_current = sorted(rest, key=lambda lh: (-report.means[lh[0], lh[1], 2], lh))
    return role_map_from_lists(report.layers, report.heads, anchor=by_sink[:n_anchor],
                               local=by_current[:n_local], alpha_anchor=alpha_anchor,
                               tau_local=tau_local)


@dataclass(frozen=True)
class StabilityReport:
    """Fraction of heads per role consistently classified across M runs."""

    s_anchor: float
    s_local: float
    s_memory: float
    runs: int

    @property
    def s_avg(self) -> float:
        return (self.s_anchor + self.s_local + self.s_memory) / 3.0

    def for_role(self, role: HeadRole) -> float:
        return {HeadRole.ANCHOR: self.s_anchor, HeadRole.LOCAL: self.s_local,
                HeadRole.MEMORY: self.s_memory}[role]


def core_stability_ratio(runs: list[HeadRoleMap]) -> StabilityReport:
    """|intersection of role-c sets| / mean(|role-c set|) per role."""
    if len(runs) < 2:
        raise ConfigError("stability needs at least 2 runs")
    grid = (runs[0].layers, runs[0].heads)
    if any((m.layers, m.heads) != grid for m in runs):
        raise ConfigError("stability runs cover different head grids")

    ratios = {}
    for role in (HeadRole.ANCHOR, HeadRole.LOCAL, HeadRole.MEMORY):
        sets = [set(m.heads_of(role)) for m in runs]
        inter = set.intersection(*sets)
        mean_size = sum(len(s) for s in sets) / len(sets)
        ratios[role] = len(inter) / mean_size if mean_size > 0 else 1.0
    return StabilityReport(s_anchor=ratios[HeadRole.ANCHOR],
                           s_local=ratios[HeadRole.LOCAL],
                           s_memory=ratios[HeadRole.MEMORY],
                           runs=len(runs))
