"""Frame windows, which hold the frames a cache policy retains, plus the
frame-slot budget accountant.

Frame indexing is 0-based and global: block i (1-based) covers frames
f*(i-1) .. f*i-1. Cached keys always carry spatial-only rotary encoding;
temporal encoding happens at assembly time, never at write time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SequencingError, ShapeError
from .roles import HeadRole, HeadRoleMap


class FrameKV:
    """One frame's keys/values for one (layer, head).

    keys are stored with spatial RoPE applied and no temporal rotation, and
    never change after construction; the episodic tier, not the frame, pools
    them. An episodic summary frame has global frame index -1. provenance
    maps each token row to its (source global frame, source token) pair:
    summary frames are given theirs, since their rows originate from
    multiple source frames (one read-only array shared by the heads of a
    layer); for ordinary frames it is the identity, built on first read.
    """

    __slots__ = ("keys", "values", "global_frame_index", "_provenance")

    def __init__(self, keys: np.ndarray, values: np.ndarray, global_frame_index: int,
                 provenance: np.ndarray | None = None):
        n = keys.shape[0]
        if values.shape[0] != n:
            raise ShapeError("FrameKV keys/values row counts differ")
        if provenance is not None and provenance.shape[0] != n:
            raise ShapeError("FrameKV provenance row count differs from keys")
        self.keys = keys                              # (tokens, d)
        self.values = values                          # (tokens, d)
        self.global_frame_index = global_frame_index
        self._provenance = provenance                 # (tokens, 2) int, (frame, token)

    @property
    def is_summary(self) -> bool:
        return self.global_frame_index == -1

    @property
    def tokens(self) -> int:
        return self.keys.shape[0]

    @property
    def provenance(self) -> np.ndarray:
        if self._provenance is None:
            prov = np.empty((self.tokens, 2), dtype=np.int64)
            prov[:, 0] = self.global_frame_index
            prov[:, 1] = np.arange(self.tokens)
            self._provenance = prov
        return self._provenance


def _check_roll_order(last_block: int, block_index: int) -> None:
    if block_index != last_block + 1:
        raise SequencingError(
            f"roll for block {block_index} but cache last saw block {last_block}"
        )


class FrameWindow:
    """The frames one cache policy retains: the first n_sink frames it saw
    plus its last `keep` frames, or every frame when keep is None (the
    sink-plus-recent cache of StreamingLLM). It never looks inside a frame;
    the strategies store each as one (layer, head) -> FrameKV map over the
    policy's heads. Local heads share FrameWindow(0, 1), anchor heads
    FrameWindow(f, 1), memory heads' fast tier FrameWindow(0, B_fast)."""

    __slots__ = ("n_sink", "keep", "frames", "last_block")

    def __init__(self, n_sink: int, keep: int | None):
        if n_sink < 0 or (keep is not None and keep < 0):
            raise ConfigError(f"FrameWindow needs n_sink, keep >= 0, got {n_sink}, {keep}")
        self.n_sink = n_sink
        self.keep = keep
        self.frames: list = []
        self.last_block = 0

    def roll(self, block_index: int, frames: list) -> list:
        """Append a finished block's frames; returns the frames dropped, oldest first."""
        _check_roll_order(self.last_block, block_index)
        self.last_block = block_index
        self.frames.extend(frames)
        if self.keep is None:
            return []
        # clamped at n_sink: nothing leaves until more than n_sink + keep frames are held
        stop = max(len(self.frames) - self.keep, self.n_sink)
        evicted = self.frames[self.n_sink:stop]
        del self.frames[self.n_sink:stop]
        return evicted


def roll_after_block(cache: FrameWindow, block_index: int, frames: list) -> list:
    """Advance a window past a finished block. Returns the frames it dropped;
    the caller decides episodic candidacy."""
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


UNIFORM_BASELINES = (21, 16, 8, 12)     # the paper's budget-table window sizes


def budget_table(budget: CacheBudget) -> list[dict]:
    """Rows for the budget CSV: the head-wise scheme plus the uniform
    baselines, relative budgets normalized to the head-wise total."""
    total_heads = budget.n_local + budget.n_anchor + budget.n_memory
    head_wise = budget.total
    rows = [{
        "method": "head_wise",
        "cache_per_head": f"{budget.local_per_head}/{budget.anchor_per_head}/{budget.memory_per_head}",
        "frame_slots": head_wise,
        "relative_budget": 100.0,
    }]
    for w in UNIFORM_BASELINES:
        slots = total_heads * w
        rows.append({
            "method": f"uniform_{w}",
            "cache_per_head": str(w),
            "frame_slots": slots,
            "relative_budget": 100.0 * slots / head_wise,
        })
    return rows
