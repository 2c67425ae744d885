"""Block-wise autoregressive rollout engine with pluggable cache strategies.

Each step projects per-head Q/K/V from the block's hidden state, asks the
strategy for every head's retained history and for the temporal index of
each frame (contiguous re-indexing for the head-wise strategy, global frame
indices for the baselines), packs all heads of a layer into one flat
buffer, and runs packed attention. Caches advance only at commit time, through the strategy's
roll.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np

from .assembly import (
    Workspace,
    assemble,
    encode_queries,
    encode_temporal,
    pack,
    packed_attention,
    reencode_temporal,
)
from .cache import FrameKV, FrameWindow, roll_after_block
from .episodic import AdmissionDecision, EpisodicMemory, Slots
from .errors import ConfigError
from .model import ModelConfig, ModelWeights, block_input
from .roles import HeadRole, HeadRoleMap
from .tensor_ops import SPATIAL_AXES, RopeParams, apply_rope, grid_positions, rope_rotation


@dataclass
class LatentBlock:
    """One generated block: f frames of final latents; its keys and values,
    one (layer, head) -> FrameKV map per frame, which the caches roll in as
    they are; every head's spatially encoded queries, for profiling; and what
    the step attended: frames and key/value scalars summed over heads. The
    recompute oracle's blocks carry latents only."""

    index: int
    frames: list[np.ndarray]             # f arrays of (s, d_model)
    kv: list[Slots] = field(default_factory=list)
    q_spatial: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)   # (f*s, d) each
    frame_slots: int = 0
    stored_scalars: int = 0


class CacheStrategy(Protocol):
    """What the engine and the commands need of a cache policy: the model
    config it was built for, each head's retained frames, the temporal index
    of each frame of a head's context, the roll past a finished block, and
    its own final state."""

    name: str
    config: ModelConfig

    def history_frames(self, layer: int, head: int) -> list[FrameKV]: ...

    def encode(self, frames: list[FrameKV]) -> tuple[int, ...]: ...

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]: ...

    def state(self) -> dict: ...


class WindowStrategy:
    """Uniform sliding window, optionally with leading sink frames, at global
    temporal indices; window=None keeps every frame (the unbounded baseline).

    The window counts the current block: each head attends the first n_sink
    frames plus the most recent `window` frames of the full sequence (a sink
    frame is not repeated), so the steady-state budget is n_sink + window
    frames.
    """

    def __init__(self, config: ModelConfig, window: int | None, n_sink: int = 0):
        if window is not None and window < config.f:
            raise ConfigError(f"window must be >= f ({config.f}), got {window}")
        if n_sink < 0:
            raise ConfigError("n_sink must be >= 0")
        self.config = config
        if window is None:
            self.name = "unbounded"
        elif n_sink:
            self.name = f"sink_window(W={window}, n_sink={n_sink})"
        else:
            self.name = f"uniform_window(W={window})"
        # the current block takes f of the window's slots; every head holds
        # the same frames, so one window of frame maps serves them all
        self.window = FrameWindow(n_sink, None if window is None else window - config.f)

    def history_frames(self, layer: int, head: int) -> list[FrameKV]:
        return [frame[(layer, head)] for frame in self.window.frames]

    @staticmethod
    def encode(frames: list[FrameKV]) -> tuple[int, ...]:
        return encode_temporal(frames)

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        self.window.roll(block.index, block.kv)
        return []

    @staticmethod
    def state() -> dict:
        return {}


@dataclass
class HeadWiseHyper:
    b_epi: int = 5
    b_fast: int = 3
    tau_novel: float = 0.95
    update_interval: int = 3

    def __post_init__(self) -> None:
        if min(self.b_epi, self.b_fast, self.update_interval) < 1:
            raise ConfigError("B_epi, B_fast, update_interval must be >= 1")
        if not math.isfinite(self.tau_novel):
            raise ConfigError(f"tau_novel must be finite, got {self.tau_novel}")


class HeadWiseStrategy:
    """Role-tailored caches: local pruning, anchor retention, and a
    hierarchical fast + episodic memory for memory heads, with contiguous
    per-head temporal re-indexing at assembly time. Each role has one window,
    whose frame maps hold that role's heads only."""

    name = "head_wise"

    def __init__(self, config: ModelConfig, weights: ModelWeights,
                 role_map: HeadRoleMap, hyper: HeadWiseHyper | None = None):
        if role_map.layers != config.L or role_map.heads != config.H:
            raise ConfigError(
                f"role map covers {role_map.layers}x{role_map.heads} heads but model is {config.L}x{config.H}"
            )
        if weights.config != config:
            raise ConfigError("model weights were built for a different model config")
        self.config = config
        self.weights = weights
        self.hyper = hyper or HeadWiseHyper()
        self.role_map = role_map
        sizes = {HeadRole.LOCAL: (0, 1), HeadRole.ANCHOR: (config.f, 1),
                 HeadRole.MEMORY: (0, self.hyper.b_fast)}
        self.windows = {role: FrameWindow(*size) for role, size in sizes.items()}
        self._heads = {role: role_map.heads_of(role) for role in sizes}
        self.episodic = EpisodicMemory(capacity=self.hyper.b_epi, memory_heads=self._heads[HeadRole.MEMORY])
        # the frame map of the newest block-first frame to leave fast memory
        # since the last update
        self._candidate: Slots | None = None
        # the last prompt's key vector per memory head, as (prompt, keys)
        self._prompt_keys: tuple[str, dict[tuple[int, int], np.ndarray]] | None = None

    def history_frames(self, layer: int, head: int) -> list[FrameKV]:
        role = self.role_map.role(layer, head)
        frames = [frame[(layer, head)] for frame in self.windows[role].frames]
        if role is HeadRole.MEMORY:
            return self.episodic.slot_frames(layer, head) + frames
        return frames

    @staticmethod
    def encode(frames: list[FrameKV]) -> tuple[int, ...]:
        # contiguous per-head indices replace the global ones
        return reencode_temporal(frames)

    def roll(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        # each window keeps its own role's heads, so an anchor's sink frames
        # keep no other head's keys and values alive
        evicted = {role: roll_after_block(window, block.index,
                                          [{lh: frame[lh] for lh in self._heads[role]} for frame in block.kv])
                   for role, window in self.windows.items()}

        # a frame map leaving fast memory is a candidate's slots; candidacy
        # fires when a block's first frame leaves, and a newer candidate
        # replaces an older one
        for slots in evicted[HeadRole.MEMORY]:
            if slots[self.episodic.memory_heads[0]].global_frame_index % self.config.f == 0:
                self._candidate = slots

        if block.index % self.hyper.update_interval or self._candidate is None:
            return []
        candidate, self._candidate = self._candidate, None
        if self._prompt_keys is None or self._prompt_keys[0] != prompt:
            self._prompt_keys = (prompt, {(l, h): self.weights.prompt_key_vector(prompt, l, h)
                                          for (l, h) in self.episodic.memory_heads})
        return [self.episodic.try_admit(
            candidate=candidate,
            block_index=block.index,
            tau_novel=self.hyper.tau_novel,
            prompt_keys=self._prompt_keys[1],
        )]

    def state(self) -> dict:
        return {"episodic_entries": [{"frame_index": e.frame_index, "is_summary": e.is_summary}
                                     for e in self.episodic.entries]}


@dataclass
class MetricsRow:
    """What a block's timing and prompt add to the block itself."""

    wall_time_ms: float                  # step()
    commit_ms: float                     # commit(): cache roll and episodic work
    active_prompt: str


class RolloutEngine:
    def __init__(self, weights: ModelWeights, config: ModelConfig, rope: RopeParams,
                 strategy: CacheStrategy):
        if rope.d != config.d:
            raise ConfigError(f"rope channel total {rope.d} != head dim {config.d}")
        if weights.config != config:
            raise ConfigError("model weights were built for a different model config")
        if strategy.config != config:
            raise ConfigError("cache strategy was built for a different model config")
        self.weights = weights
        self.config = config
        self.rope = rope
        self.strategy = strategy
        frame_grid = grid_positions(config.grid_h, config.grid_w)
        # q and k of every head and block share the f*s grid positions
        self._spatial = rope_rotation(np.tile(frame_grid, (config.f, 1)), rope, SPATIAL_AXES)
        # every layer of every step packs and scores into it; nothing the
        # engine returns or caches points into it
        self._workspace = Workspace()

    def step(self, i: int, prompt: str, perturb: np.ndarray | None = None) -> LatentBlock:
        """Generate block i against the current cache state without mutating
        it. Deterministic given (seed, prompt schedule, i, perturb)."""
        cfg = self.config
        f, s = cfg.f, cfg.s
        hidden = block_input(self.weights, prompt, i, perturb=perturb)
        base_frame = f * (i - 1)
        kv: list[Slots] = [{} for _ in range(f)]
        q_spatial: dict[tuple[int, int], np.ndarray] = {}
        step_slots = 0
        step_scalars = 0

        w = self.weights
        for l in range(cfg.L):
            # one product per projection and layer; slice h holds the same
            # bits as hidden @ w.wq[l, h]
            q_heads = np.matmul(hidden, w.wq[l])
            k_heads = np.matmul(hidden, w.wk[l])
            v_heads = np.matmul(hidden, w.wv[l])
            encoded = []
            queries = []
            for h in range(cfg.H):
                q, k = q_heads[h], k_heads[h]
                # rotated in place: the layer's products are this step's own
                apply_rope(q, self._spatial, out=q)
                apply_rope(k, self._spatial, out=k)
                v = v_heads[h]
                # each frame owns its rows, so a frame kept past this block
                # does not keep the whole block's k and v alive
                current = [
                    FrameKV(keys=k[t * s:(t + 1) * s].copy(),
                            values=v[t * s:(t + 1) * s].copy(),
                            global_frame_index=base_frame + t)
                    for t in range(f)
                ]
                context = self.strategy.history_frames(l, h) + current
                enc = assemble(l, h, context, f, self.strategy.encode(context), self.rope)
                q_enc = encode_queries(q, enc)
                q_spatial[(l, h)] = q
                for frame, fr in zip(kv, current):
                    frame[(l, h)] = fr
                encoded.append(enc)
                queries.append(q_enc)
                step_slots += enc.frame_count

            buffer = pack(encoded, queries, workspace=self._workspace)
            outputs = packed_attention(buffer)
            step_scalars += buffer.keys.size + buffer.values.size
            delta = np.zeros_like(hidden)
            for h in range(cfg.H):
                delta += outputs[h] @ w.wo[l, h]
            hidden = hidden + delta

        frames = [hidden[t * s:(t + 1) * s].copy() for t in range(f)]
        return LatentBlock(index=i, frames=frames, kv=kv, q_spatial=q_spatial, frame_slots=step_slots,
                           stored_scalars=step_scalars)

    def commit(self, block: LatentBlock, prompt: str) -> list[AdmissionDecision]:
        """Advance the caches past a finished block; returns every episodic
        admission decision the roll made (none for the baselines)."""
        return self.strategy.roll(block, prompt)

    def run(self, n_blocks: int, schedule: list[tuple[str, int]]
            ) -> Iterator[tuple[LatentBlock, list[AdmissionDecision], MetricsRow]]:
        """Full rollout, streamed: steps and commits each block, then yields
        (block, its admission decisions, its metrics row) and keeps nothing.
        `schedule` is [(prompt, start_block), ...] starting at block 1; it is
        checked here, before the first block is asked for."""
        return self._stream(_expand_schedule(schedule, n_blocks))

    def _stream(self, prompts: list[str]) -> Iterator[tuple[LatentBlock, list[AdmissionDecision], MetricsRow]]:
        for i, prompt in enumerate(prompts, 1):
            t0 = time.perf_counter()
            block = self.step(i, prompt)
            t1 = time.perf_counter()
            decisions = self.commit(block, prompt)
            t2 = time.perf_counter()
            yield block, decisions, MetricsRow(wall_time_ms=(t1 - t0) * 1000.0,
                                               commit_ms=(t2 - t1) * 1000.0, active_prompt=prompt)


def check_schedule(schedule: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """The prompt schedule ordered by start block. It must be non-empty,
    start at block 1 and start each prompt at its own block; the config
    loader and every run check it here."""
    if not schedule:
        raise ConfigError("prompt schedule must not be empty")
    ordered = sorted(schedule, key=lambda ps: ps[1])
    if ordered[0][1] != 1:
        raise ConfigError("prompt schedule must start at block 1")
    if len({start for _, start in ordered}) != len(ordered):
        raise ConfigError("prompt schedule has duplicate start blocks")
    return ordered


def _expand_schedule(schedule: list[tuple[str, int]], n_blocks: int) -> list[str]:
    ordered = check_schedule(schedule)
    # block i runs the prompt with the latest start at or before i
    return [next(text for text, start in reversed(ordered) if start <= i) for i in range(1, n_blocks + 1)]
