"""Head-role profiling: per-head attention-mass buckets over sink / middle /
current temporal regions, role classification by threshold quotas, and the
cross-run core stability ratio.

The profiled rollout advances under a sink-plus-sliding-window cache so the
substrate sees long context, while the sampled-block measurement computes
each head's attention map against the full archived key history with global
frame indices. Maps are reduced to bucket sums on the fly and never kept
beyond one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .model import ModelConfig, ModelWeights, measurement_perturbation
from .roles import HeadRole, HeadRoleMap
from .rollout import LatentBlock, RolloutEngine, WindowStrategy, _expand_schedule
from .tensor_ops import TEMPORAL, RopeParams, apply_rope, softmax_rows, temporal_positions


@dataclass(frozen=True)
class BucketProportions:
    p_sink: float
    p_middle: float
    p_current: float

    def __post_init__(self) -> None:
        total = self.p_sink + self.p_middle + self.p_current
        if min(self.p_sink, self.p_middle, self.p_current) < -1e-12:
            raise ShapeError("bucket proportions must be non-negative")
        if abs(total - 1.0) > 1e-9:
            raise ShapeError(f"bucket proportions sum to {total}, expected 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_sink, self.p_middle, self.p_current)


def bucket_proportions(a: np.ndarray, s: int, i: int, f: int = 3) -> BucketProportions:
    """Attention mass per temporal bucket of a (f*s) x (f*i*s) row-stochastic
    map: sink = first frame, current = the block's last f frames, middle =
    everything between. Normalized by the f*s query rows."""
    if i < 2:
        raise ConfigError(f"bucket proportions need a middle bucket; block index {i} < 2")
    a = np.asarray(a)
    if a.shape != (f * s, f * i * s):
        raise ShapeError(f"attention map must be ({f * s}, {f * i * s}), got {a.shape}")
    sink_end = s
    current_start = (f * i - f) * s
    norm = 1.0 / (f * s)
    p_sink = float(a[:, :sink_end].sum()) * norm
    p_middle = float(a[:, sink_end:current_start].sum()) * norm
    p_current = float(a[:, current_start:].sum()) * norm
    return BucketProportions(p_sink, p_middle, p_current)


@dataclass
class ProfileReport:
    """Mean bucket proportions per (layer, head) with the sample counts that
    produced them."""

    layers: int
    heads: int
    means: np.ndarray            # (L, H, 3): sink, middle, current
    n_blocks: int
    n_repeats: int
    n_prompts: int

    def proportions(self, layer: int, head: int) -> BucketProportions:
        p = self.means[layer, head]
        return BucketProportions(float(p[0]), float(p[1]), float(p[2]))


def profile_rollout(weights: ModelWeights, config: ModelConfig, rope: RopeParams,
                    sampled_blocks: list[int], repeats: int, prompts: list[str],
                    window: int = 8, n_sink: int = 1,
                    perturb_scale: float = 0.05,
                    perturb_offset: int = 0) -> ProfileReport:
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
    sums = np.zeros((config.L, config.H, 3))
    count = 0

    for prompt in prompts:
        strategy = WindowStrategy(config, window=window, n_sink=n_sink)
        engine = RolloutEngine(weights, config, rope, strategy)
        archive: dict[tuple[int, int], list[np.ndarray]] = {lh: [] for lh in config.heads}
        schedule = _expand_schedule([(prompt, 1)], n_blocks)
        for i in range(1, n_blocks + 1):
            block = engine.step(i, schedule[i - 1])
            if i in sampled:
                for r in range(repeats):
                    stream = perturb_offset + r
                    if stream == 0:
                        probe = block
                    else:
                        perturb = measurement_perturbation(config, i, stream, perturb_scale)
                        probe = engine.step(i, schedule[i - 1], perturb=perturb)
                    _accumulate_block(sums, archive, probe, config, rope)
                count += repeats
            engine.commit(block, schedule[i - 1])
            _archive_block(archive, block)

    means = sums / count
    return ProfileReport(layers=config.L, heads=config.H, means=means,
                         n_blocks=len(sampled), n_repeats=repeats, n_prompts=len(prompts))


def _archive_block(archive: dict, block: LatentBlock) -> None:
    for rec in block.layer_records:
        for h, frames in enumerate(rec.frames):
            archive[(rec.layer, h)].extend(fr.keys for fr in frames)


def _accumulate_block(sums: np.ndarray, archive: dict, block: LatentBlock,
                      config: ModelConfig, rope: RopeParams) -> None:
    """Full-context attention map per head, reduced to bucket sums."""
    i = block.index
    f, s = config.f, config.s
    q_pos = _frame_positions(f * (i - 1), f, s)
    key_pos = _frame_positions(0, f * i, s)
    for rec in block.layer_records:
        for h in range(config.H):
            hist = archive[(rec.layer, h)]
            cur = [fr.keys for fr in rec.frames[h]]
            all_keys = np.vstack(hist + cur)
            k_enc = apply_rope(all_keys, key_pos, rope, axes=(TEMPORAL,))
            q_enc = apply_rope(rec.q_spatial[h], q_pos, rope, axes=(TEMPORAL,))
            a = softmax_rows(q_enc @ k_enc.T / math.sqrt(config.d))
            p = bucket_proportions(a, s, i, f=f)
            sums[rec.layer, h, 0] += p.p_sink
            sums[rec.layer, h, 1] += p.p_middle
            sums[rec.layer, h, 2] += p.p_current


def _frame_positions(first_frame: int, n_frames: int, s: int) -> np.ndarray:
    """(n_frames*s, 3) positions carrying only the global frame index."""
    return temporal_positions(np.repeat(np.arange(first_frame, first_frame + n_frames, dtype=np.int64), s))


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def classify_heads(report: ProfileReport, alpha_anchor: float, tau_local: float,
                   provenance: str = "") -> HeadRoleMap:
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
    locals_ = set(by_current[:n_local])

    roles = {}
    for lh in all_heads:
        if lh in anchors:
            roles[lh] = HeadRole.ANCHOR
        elif lh in locals_:
            roles[lh] = HeadRole.LOCAL
        else:
            roles[lh] = HeadRole.MEMORY
    return HeadRoleMap(layers=report.layers, heads=report.heads,
                       alpha_anchor=alpha_anchor, tau_local=tau_local,
                       roles=roles, provenance=provenance)


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
