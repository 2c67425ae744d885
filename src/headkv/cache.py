"""Per-head KV cache state machines for the three head roles, plus the
frame-slot budget accountant.

Frame indexing is 0-based and global: block i (1-based) covers frames
f*(i-1) .. f*i-1. Cached keys always carry spatial-only rotary encoding;
temporal encoding happens at assembly time, never at write time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError, SequencingError, ShapeError
from .roles import HeadRole, HeadRoleMap

if TYPE_CHECKING:  # avoids a cycle; episodic imports FrameKV from here
    from .episodic import EpisodicMemory


class FrameKV:
    """One frame's keys/values for one (layer, head).

    keys are stored with spatial RoPE applied and no temporal rotation, and
    never change after construction, so the mean-pooled key and its norm are
    computed once, on first use. provenance maps each token row to its
    (source global frame, source token) pair: summary frames are given theirs,
    since their rows originate from multiple source frames; for ordinary
    frames it is the identity, built on first read.
    """

    __slots__ = ("keys", "values", "spatial_positions", "global_frame_index", "is_summary",
                 "_provenance", "_pooled")

    def __init__(self, keys: np.ndarray, values: np.ndarray, spatial_positions: np.ndarray,
                 global_frame_index: int, is_summary: bool = False,
                 provenance: np.ndarray | None = None):
        n = keys.shape[0]
        if values.shape[0] != n or spatial_positions.shape[0] != n:
            raise ShapeError("FrameKV keys/values/spatial_positions row counts differ")
        if provenance is not None and provenance.shape[0] != n:
            raise ShapeError("FrameKV provenance row count differs from keys")
        self.keys = keys                              # (tokens, d)
        self.values = values                          # (tokens, d)
        self.spatial_positions = spatial_positions    # (tokens, 2) int, (h, w)
        self.global_frame_index = global_frame_index
        self.is_summary = is_summary
        self._provenance = provenance                 # (tokens, 2) int, (frame, token)
        self._pooled: tuple[np.ndarray, float] | None = None

    @property
    def tokens(self) -> int:
        return self.keys.shape[0]

    @property
    def provenance(self) -> np.ndarray:
        if self._provenance is None:
            n = self.tokens
            self._provenance = np.column_stack(
                (np.full(n, self.global_frame_index, dtype=np.int64),
                 np.arange(n, dtype=np.int64))
            )
        return self._provenance

    @property
    def pooled_key(self) -> tuple[np.ndarray, float]:
        """Mean of the key rows and that mean's L2 norm."""
        if self._pooled is None:
            pooled = self.keys.mean(axis=0)
            self._pooled = (pooled, float(np.linalg.norm(pooled)))
        return self._pooled


def _check_roll_order(last_block: int, block_index: int) -> None:
    if block_index != last_block + 1:
        raise SequencingError(
            f"roll for block {block_index} but cache last saw block {last_block}"
        )


@dataclass
class LocalCache:
    """Keeps only the last frame of the most recent block."""

    prev_frame: Optional[FrameKV] = None
    last_block: int = 0

    def roll(self, block_index: int, frames: list[FrameKV]) -> list[FrameKV]:
        _check_roll_order(self.last_block, block_index)
        self.prev_frame = frames[-1]
        self.last_block = block_index
        return []

    def history(self) -> list[FrameKV]:
        return [self.prev_frame] if self.prev_frame is not None else []


@dataclass
class AnchorCache:
    """Local window plus the first f frames, which are captured once and
    never evicted."""

    anchor_count: int
    anchor_frames: list[FrameKV] = field(default_factory=list)
    prev_frame: Optional[FrameKV] = None
    last_block: int = 0

    def roll(self, block_index: int, frames: list[FrameKV]) -> list[FrameKV]:
        _check_roll_order(self.last_block, block_index)
        for fr in frames:
            if fr.global_frame_index < self.anchor_count and len(self.anchor_frames) < self.anchor_count:
                self.anchor_frames.append(fr)
        self.prev_frame = frames[-1]
        self.last_block = block_index
        return []

    def history(self) -> list[FrameKV]:
        out = list(self.anchor_frames)
        seen = {fr.global_frame_index for fr in out}
        if self.prev_frame is not None and self.prev_frame.global_frame_index not in seen:
            out.append(self.prev_frame)
        return out


@dataclass
class MemoryCache:
    """FIFO fast memory of the B_fast most recent frames; the episodic tier is
    a shared object owned by the episodic module (one per rollout)."""

    b_fast: int
    layer: int
    head: int
    episodic: Optional["EpisodicMemory"] = None
    fast: list[FrameKV] = field(default_factory=list)
    last_block: int = 0

    def roll(self, block_index: int, frames: list[FrameKV]) -> list[FrameKV]:
        _check_roll_order(self.last_block, block_index)
        self.fast.extend(frames)
        evicted: list[FrameKV] = []
        while len(self.fast) > self.b_fast:
            evicted.append(self.fast.pop(0))
        self.last_block = block_index
        return evicted

    def history(self) -> list[FrameKV]:
        out: list[FrameKV] = []
        if self.episodic is not None:
            out.extend(self.episodic.slot_frames(self.layer, self.head))
        out.extend(self.fast)
        return out


RoleCache = LocalCache | AnchorCache | MemoryCache


def make_cache(role: HeadRole, layer: int, head: int, f: int, b_fast: int,
               episodic: Optional["EpisodicMemory"] = None) -> RoleCache:
    if role is HeadRole.LOCAL:
        return LocalCache()
    if role is HeadRole.ANCHOR:
        return AnchorCache(anchor_count=f)
    return MemoryCache(b_fast=b_fast, layer=layer, head=head, episodic=episodic)


def roll_after_block(cache: RoleCache, block_index: int, frames: list[FrameKV]) -> list[FrameKV]:
    """Advance one cache past a finished block. Returns frames evicted from
    fast memory (memory heads only); the caller decides episodic candidacy."""
    return cache.roll(block_index, frames)


@dataclass(frozen=True)
class CacheBudget:
    """Frame-slot accounting: frames attended per AR step, current block included."""

    n_local: int
    n_anchor: int
    n_memory: int
    f: int
    b_epi: int
    b_fast: int

    @property
    def local_per_head(self) -> int:
        return self.f + 1

    @property
    def anchor_per_head(self) -> int:
        return 2 * self.f + 1

    @property
    def memory_per_head(self) -> int:
        return self.b_epi + self.b_fast + self.f

    @property
    def total(self) -> int:
        return (self.n_local * self.local_per_head
                + self.n_anchor * self.anchor_per_head
                + self.n_memory * self.memory_per_head)


def frame_slots(role_map: HeadRoleMap, b_epi: int, b_fast: int, f: int) -> CacheBudget:
    if min(b_epi, b_fast, f) < 1:
        raise ConfigError("frame_slots parameters must be >= 1")
    counts = role_map.counts()
    return CacheBudget(
        n_local=counts[HeadRole.LOCAL],
        n_anchor=counts[HeadRole.ANCHOR],
        n_memory=counts[HeadRole.MEMORY],
        f=f, b_epi=b_epi, b_fast=b_fast,
    )


def budget_table(budget: CacheBudget, baselines: tuple[int, ...] = (21, 16, 8, 12)) -> list[dict]:
    """Rows for the budget CSV: the head-wise scheme plus uniform baselines,
    relative budgets normalized to the head-wise total."""
    total_heads = budget.n_local + budget.n_anchor + budget.n_memory
    head_wise = budget.total
    rows = [{
        "method": "head_wise",
        "cache_per_head": f"{budget.local_per_head}/{budget.anchor_per_head}/{budget.memory_per_head}",
        "frame_slots": head_wise,
        "relative_budget": 100.0,
    }]
    for w in baselines:
        slots = total_heads * w
        rows.append({
            "method": f"uniform_{w}",
            "cache_per_head": str(w),
            "frame_slots": slots,
            "relative_budget": 100.0 * slots / head_wise,
        })
    return rows
