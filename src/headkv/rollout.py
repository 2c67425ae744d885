"""Block-wise autoregressive rollout engine with pluggable cache strategies.

Each step projects per-head Q/K/V from the block's hidden state, asks the
strategy for every head's retained history and for its temporal encoding
(contiguous re-indexing for the head-wise strategy, global frame indices for
the baselines), packs all heads of a layer into one flat buffer, and runs
packed attention. Caches advance only at commit time, through the strategy's
roll.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .assembly import (
    AssembledSequence,
    EncodedSequence,
    assemble,
    encode_queries,
    encode_temporal,
    pack,
    packed_attention,
    reencode_temporal,
)
from .cache import FrameKV, RoleCache, make_cache, roll_after_block
from .episodic import AdmissionDecision, EpisodicMemory, Slots
from .errors import ConfigError
from .model import ModelConfig, ModelWeights, block_input
from .roles import HeadRole, HeadRoleMap
from .tensor_ops import RopeParams, SPATIAL_AXES, apply_rope, grid_positions


@dataclass
class LayerRecord:
    """One layer's per-head projections for a finished block: spatially
    encoded queries and the f per-head FrameKV destined for the caches."""

    layer: int
    q_spatial: list[np.ndarray]          # per head, (f*s, d)
    frames: list[list[FrameKV]]          # per head, f frames


@dataclass
class LatentBlock:
    """One generated block: f frames of final latents, the per-layer Q/K/V
    records retained for cache writes and profiling, and what the step
    attended: frames and key/value scalars summed over heads, plus per-head
    retention evidence when the engine records it."""

    index: int
    frames: list[np.ndarray]             # f arrays of (s, d_model)
    layer_records: list[LayerRecord]
    frame_slots: int = 0
    stored_scalars: int = 0
    retention: dict[tuple[int, int], RetentionSnapshot] = field(default_factory=dict)

    def hidden(self) -> np.ndarray:
        return np.vstack(self.frames)


@dataclass
class RetentionSnapshot:
    """Per-head evidence for the masked-attention oracle at one step."""

    provenance: np.ndarray               # (tokens, 2) source (frame, token)
    key_token_temporal: np.ndarray       # (tokens,)
    query_frame_indices: np.ndarray      # (f,)
    output: np.ndarray                   # (f*s, d)


class CacheStrategy(Protocol):
    name: str

    def history_frames(self, layer: int, head: int) -> list[FrameKV]: ...

    def encode(self, seq: AssembledSequence, rope: RopeParams,
               query_frame_indices: np.ndarray) -> EncodedSequence: ...

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]: ...


def _encode_global(seq: AssembledSequence, rope: RopeParams,
                   query_frame_indices: np.ndarray) -> EncodedSequence:
    """Temporal encoding at each frame's global index, queries included."""
    key_idx = np.array([fr.global_frame_index for fr in seq.frames], dtype=np.int64)
    return encode_temporal(seq, rope, key_idx, query_frame_indices)


class UnboundedStrategy:
    """Keep every frame for every head; temporal indices stay global."""

    name = "unbounded"

    def __init__(self, config: ModelConfig):
        self.config = config
        self._frames: dict[tuple[int, int], list[FrameKV]] = {lh: [] for lh in config.heads}

    def history_frames(self, layer: int, head: int) -> list[FrameKV]:
        return list(self._frames[(layer, head)])

    encode = staticmethod(_encode_global)

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        for rec in block.layer_records:
            for h, frames in enumerate(rec.frames):
                self._frames[(rec.layer, h)].extend(frames)
        return []


class WindowStrategy:
    """Uniform sliding window, optionally with leading sink frames.

    The window counts the current block: each head attends the first n_sink
    frames plus the most recent `window` frames of the full sequence
    (deduplicated), so the steady-state budget is n_sink + window frames.
    """

    def __init__(self, config: ModelConfig, window: int, n_sink: int = 0):
        if window < config.f:
            raise ConfigError(f"window must be >= f ({config.f}), got {window}")
        if n_sink < 0:
            raise ConfigError("n_sink must be >= 0")
        self.config = config
        self.window = window
        self.n_sink = n_sink
        self.name = f"sink_window(W={window}, n_sink={n_sink})" if n_sink else f"uniform_window(W={window})"
        self._f = config.f
        self._sink: dict[tuple[int, int], list[FrameKV]] = {lh: [] for lh in config.heads}
        self._recent: dict[tuple[int, int], list[FrameKV]] = {lh: [] for lh in config.heads}

    def history_frames(self, layer: int, head: int) -> list[FrameKV]:
        sink = self._sink[(layer, head)]
        # current block consumes f of the window's slots
        keep = max(self.window - self._f, 0)
        recent = self._recent[(layer, head)][-keep:] if keep else []
        seen = {fr.global_frame_index for fr in sink}
        return sink + [fr for fr in recent if fr.global_frame_index not in seen]

    encode = staticmethod(_encode_global)

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        for rec in block.layer_records:
            for h, frames in enumerate(rec.frames):
                lh = (rec.layer, h)
                for fr in frames:
                    if len(self._sink[lh]) < self.n_sink:
                        self._sink[lh].append(fr)
                self._recent[lh].extend(frames)
                keep = max(self.window - self._f, 0)
                del self._recent[lh][:-keep or len(self._recent[lh])]
        return []


@dataclass
class HeadWiseHyper:
    b_epi: int = 5
    b_fast: int = 3
    tau_novel: float = 0.95
    update_interval: int = 3
    candidate_mode: str = "latest"      # or "all": evaluate every exited block
    novelty_metric: str = "key_cosine"  # or "latent"

    def __post_init__(self) -> None:
        if min(self.b_epi, self.b_fast, self.update_interval) < 1:
            raise ConfigError("B_epi, B_fast, update_interval must be >= 1")
        if not math.isfinite(self.tau_novel):
            raise ConfigError(f"tau_novel must be finite, got {self.tau_novel}")
        if self.candidate_mode not in ("latest", "all"):
            raise ConfigError(f"unknown candidate_mode {self.candidate_mode!r}")


@dataclass
class _Candidate:
    frame_index: int
    slots: Slots
    latent: Optional[np.ndarray]


class HeadWiseStrategy:
    """Role-tailored caches: local pruning, anchor retention, and a
    hierarchical fast + episodic memory for memory heads, with contiguous
    per-head temporal re-indexing at assembly time."""

    name = "head_wise"

    def __init__(self, config: ModelConfig, weights: ModelWeights,
                 role_map: HeadRoleMap, hyper: HeadWiseHyper | None = None):
        if role_map.layers != config.L or role_map.heads != config.H:
            raise ConfigError(
                f"role map covers {role_map.layers}x{role_map.heads} heads but model is {config.L}x{config.H}"
            )
        self.config = config
        self.weights = weights
        self.role_map = role_map
        self.hyper = hyper or HeadWiseHyper()
        memory_heads = role_map.heads_of(HeadRole.MEMORY)
        if not memory_heads:
            raise ConfigError("head-wise strategy needs at least one memory head")
        self.episodic = EpisodicMemory(
            capacity=self.hyper.b_epi,
            memory_heads=memory_heads,
            tokens_per_frame=config.s,
            novelty_metric=self.hyper.novelty_metric,
        )
        self.caches: dict[tuple[int, int], RoleCache] = {
            (l, h): make_cache(role_map.role(l, h), l, h, config.f, self.hyper.b_fast, self.episodic)
            for (l, h) in config.heads
        }
        self._pending: list[_Candidate] = []
        self._prompt_keys: Slots = {}
        self._active_prompt: Optional[str] = None
        # latents of the frames in fast memory, kept only for the latent
        # novelty metric
        self._latents: dict[int, np.ndarray] = {}

    def history_frames(self, layer: int, head: int) -> list[FrameKV]:
        return self.caches[(layer, head)].history()

    def encode(self, seq: AssembledSequence, rope: RopeParams,
               query_frame_indices: np.ndarray) -> EncodedSequence:
        # contiguous per-head indices replace the global ones
        return reencode_temporal(seq, rope)

    def _refresh_prompt_keys(self, prompt: str) -> None:
        if prompt == self._active_prompt:
            return
        self._prompt_keys = {
            (l, h): self.weights.prompt_key_vector(prompt, l, h)
            for (l, h) in self.episodic.memory_heads
        }
        self._active_prompt = prompt

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        self._refresh_prompt_keys(prompt)
        f = self.config.f
        if self.hyper.novelty_metric == "latent":
            for k, frame in enumerate(block.frames):
                self._latents[f * (block.index - 1) + k] = frame
        evicted_by_slot: dict[tuple[int, int], list[FrameKV]] = {}
        for rec in block.layer_records:
            for h, frames in enumerate(rec.frames):
                lh = (rec.layer, h)
                evicted = roll_after_block(self.caches[lh], block.index, frames)
                if evicted:
                    evicted_by_slot[lh] = evicted

        # Every memory head evicts the same frames. A frame's latent is needed
        # only while it is in fast memory; candidacy fires when a block's
        # first frame leaves it.
        if evicted_by_slot:
            for k, fr in enumerate(next(iter(evicted_by_slot.values()))):
                latent = self._latents.pop(fr.global_frame_index, None)
                if fr.global_frame_index % f:
                    continue
                cand = _Candidate(frame_index=fr.global_frame_index, latent=latent,
                                  slots={lh: evicted[k] for lh, evicted in evicted_by_slot.items()})
                if self.hyper.candidate_mode == "latest":
                    self._pending = [cand]
                else:
                    self._pending.append(cand)

        if block.index % self.hyper.update_interval or not self._pending:
            return []
        decisions = [
            self.episodic.try_admit(
                candidate=cand.slots,
                frame_index=cand.frame_index,
                block_index=block.index,
                tau_novel=self.hyper.tau_novel,
                prompt_keys=self._prompt_keys,
                latent=cand.latent,
            )
            for cand in self._pending
        ]
        self._pending = []
        return decisions


@dataclass
class MetricsRow:
    block_index: int
    fidelity: Optional[float]
    stored_scalar_count: int
    frame_slots_live: int
    wall_time_ms: float                  # step()
    commit_ms: float                     # commit(): cache roll and episodic work
    active_prompt: str


@dataclass
class RolloutRecord:
    strategy: str
    blocks: list[LatentBlock]
    metrics: list[MetricsRow]
    admissions: list[AdmissionDecision]
    retention: list[dict[tuple[int, int], RetentionSnapshot]] = field(default_factory=list)


class RolloutEngine:
    def __init__(self, weights: ModelWeights, config: ModelConfig, rope: RopeParams,
                 strategy: CacheStrategy, keep_records: bool = False,
                 record_retention: bool = False):
        if rope.d != config.d:
            raise ConfigError(f"rope channel total {rope.d} != head dim {config.d}")
        if getattr(strategy, "config", config) != config:
            raise ConfigError("cache strategy was built for a different model config")
        self.weights = weights
        self.config = config
        self.rope = rope
        self.strategy = strategy
        self.keep_records = keep_records
        self.record_retention = record_retention
        frame_grid = grid_positions(config.grid_h, config.grid_w)
        self._spatial_pos2 = frame_grid[:, 1:].copy()              # (s, 2)
        # (f*s, 3); the t column stays 0, spatial rotation never reads it
        self._block_positions = np.tile(frame_grid, (config.f, 1))

    def step(self, i: int, prompt: str, perturb: np.ndarray | None = None) -> LatentBlock:
        """Generate block i against the current cache state without mutating
        it. Deterministic given (seed, prompt schedule, i, perturb)."""
        cfg = self.config
        f, s = cfg.f, cfg.s
        hidden = block_input(self.weights, prompt, i, perturb=perturb)
        base_frame = f * (i - 1)
        global_q_idx = np.arange(base_frame, base_frame + f, dtype=np.int64)
        records: list[LayerRecord] = []
        step_slots = 0
        step_scalars = 0
        retention: dict[tuple[int, int], RetentionSnapshot] = {}

        for l in range(cfg.L):
            q_sp: list[np.ndarray] = []
            frames_per_head: list[list[FrameKV]] = []
            encoded = []
            queries = []
            seqs: list[AssembledSequence] = []
            for h in range(cfg.H):
                q = hidden @ self.weights.wq[l, h]
                k = hidden @ self.weights.wk[l, h]
                v = hidden @ self.weights.wv[l, h]
                q = apply_rope(q, self._block_positions, self.rope, axes=SPATIAL_AXES)
                k = apply_rope(k, self._block_positions, self.rope, axes=SPATIAL_AXES)
                # each frame owns its rows, so a frame kept past this block
                # does not keep the whole block's k and v alive
                current = [
                    FrameKV(keys=k[t * s:(t + 1) * s].copy(),
                            values=v[t * s:(t + 1) * s].copy(),
                            spatial_positions=self._spatial_pos2,
                            global_frame_index=int(global_q_idx[t]))
                    for t in range(f)
                ]
                history = self.strategy.history_frames(l, h)
                seq = assemble(l, h, history, current)
                enc = self.strategy.encode(seq, self.rope, global_q_idx)
                q_enc = encode_queries(q, enc.query_frame_indices, s, self.rope)
                q_sp.append(q)
                frames_per_head.append(current)
                encoded.append(enc)
                queries.append(q_enc)
                seqs.append(seq)

            buffer = pack(encoded, queries)
            outputs = packed_attention(buffer)
            step_slots += sum(seq.frame_count for seq in seqs)
            step_scalars += buffer.keys.size + buffer.values.size
            delta = np.zeros_like(hidden)
            for h in range(cfg.H):
                delta += outputs[h] @ self.weights.wo[l, h]
            hidden = hidden + delta
            records.append(LayerRecord(layer=l, q_spatial=q_sp, frames=frames_per_head))
            if self.record_retention:
                for h in range(cfg.H):
                    retention[(l, h)] = RetentionSnapshot(
                        provenance=seqs[h].provenance(),
                        key_token_temporal=encoded[h].key_token_temporal,
                        query_frame_indices=encoded[h].query_frame_indices,
                        output=outputs[h],
                    )

        frames = [hidden[t * s:(t + 1) * s].copy() for t in range(f)]
        return LatentBlock(index=i, frames=frames, layer_records=records, frame_slots=step_slots,
                           stored_scalars=step_scalars, retention=retention)

    def commit(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        """Advance the caches past a finished block; returns every episodic
        admission decision the roll made (none for the baselines)."""
        return self.strategy.roll(block, prompt)

    def run(self, n_blocks: int, schedule: list[tuple[str, int]]) -> RolloutRecord:
        """Full rollout. `schedule` is [(prompt, start_block), ...] with the
        first entry starting at block 1."""
        prompts = _expand_schedule(schedule, n_blocks)
        record = RolloutRecord(strategy=self.strategy.name, blocks=[], metrics=[], admissions=[])
        for i in range(1, n_blocks + 1):
            prompt = prompts[i - 1]
            t0 = time.perf_counter()
            block = self.step(i, prompt)
            t1 = time.perf_counter()
            record.admissions.extend(self.commit(block, prompt))
            t2 = time.perf_counter()
            record.metrics.append(MetricsRow(
                block_index=i, fidelity=None,
                stored_scalar_count=block.stored_scalars,
                frame_slots_live=block.frame_slots,
                wall_time_ms=(t1 - t0) * 1000.0, commit_ms=(t2 - t1) * 1000.0,
                active_prompt=prompt,
            ))
            if self.record_retention:
                record.retention.append(block.retention)
            if self.keep_records:
                record.blocks.append(block)
            else:
                record.blocks.append(LatentBlock(index=i, frames=block.frames, layer_records=[]))
        return record


def _expand_schedule(schedule: list[tuple[str, int]], n_blocks: int) -> list[str]:
    if not schedule:
        raise ConfigError("prompt schedule must not be empty")
    ordered = sorted(schedule, key=lambda ps: ps[1])
    if ordered[0][1] != 1:
        raise ConfigError("prompt schedule must start at block 1")
    starts = [st for _, st in ordered]
    if len(set(starts)) != len(starts):
        raise ConfigError("prompt schedule has duplicate start blocks")
    prompts = []
    for i in range(1, n_blocks + 1):
        active = ordered[0][0]
        for text, start in ordered:
            if start <= i:
                active = text
        prompts.append(active)
    return prompts


def generate_rollout(weights: ModelWeights, config: ModelConfig, rope: RopeParams,
                     strategy: CacheStrategy, schedule: list[tuple[str, int]],
                     n_blocks: int, keep_records: bool = False,
                     record_retention: bool = False) -> RolloutRecord:
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")
    engine = RolloutEngine(weights, config, rope, strategy,
                           keep_records=keep_records, record_retention=record_retention)
    return engine.run(n_blocks, schedule)
