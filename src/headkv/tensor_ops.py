"""Minimal dense numerics: row softmax, scaled dot-product attention, and
3-axis rotary position encoding with temporal/height/width channel groups.

All functions are pure and operate on plain numpy arrays (rows = tokens,
cols = channels). Double precision is the reference path; callers may pass
float32 arrays for the relaxed-tolerance fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError

TEMPORAL = "temporal"
HEIGHT = "height"
WIDTH = "width"
ALL_AXES = (TEMPORAL, HEIGHT, WIDTH)
SPATIAL_AXES = (HEIGHT, WIDTH)


@dataclass(frozen=True)
class RopeParams:
    """Rotary channel split. d_t + d_h + d_w must equal the head dim; each
    group is rotated in adjacent channel pairs (2j, 2j+1) by
    position * base**(-2j / d_axis)."""

    d_t: int
    d_h: int
    d_w: int
    base: float = 10000.0

    def __post_init__(self) -> None:
        for name, val in (("d_t", self.d_t), ("d_h", self.d_h), ("d_w", self.d_w)):
            if val < 0 or val % 2 != 0:
                raise ShapeError(f"{name} must be a non-negative even channel count, got {val}")
        if self.base <= 1.0:
            raise ShapeError(f"rotary base must be > 1, got {self.base}")

    @property
    def d(self) -> int:
        return self.d_t + self.d_h + self.d_w

    @classmethod
    def default_for(cls, d: int, base: float = 10000.0) -> "RopeParams":
        """Half the channels temporal, a quarter each for height/width."""
        if d % 4 != 0:
            raise ShapeError(f"default channel split needs d divisible by 4, got {d}; pass an explicit split")
        return cls(d_t=d // 2, d_h=d // 4, d_w=d // 4, base=base)

    def axis_slices(self) -> dict[str, slice]:
        return {
            TEMPORAL: slice(0, self.d_t),
            HEIGHT: slice(self.d_t, self.d_t + self.d_h),
            WIDTH: slice(self.d_t + self.d_h, self.d),
        }


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction. Preserves shape and dtype."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d)) v. Bidirectional, no mask."""
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q cols {q.shape[1]} != k cols {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k rows {k.shape[0]} != v rows {v.shape[0]}")
    scores = q @ k.T / math.sqrt(k.shape[1])
    return softmax_rows(scores) @ v


def _rotate_block(block: np.ndarray, positions: np.ndarray, d_axis: int, base: float) -> np.ndarray:
    # Pairs are adjacent channels (2j, 2j+1); angle = pos * base**(-2j/d_axis).
    half = d_axis // 2
    inv_freq = base ** (-2.0 * np.arange(half, dtype=np.float64) / d_axis)
    angles = positions[:, None].astype(np.float64) * inv_freq[None, :]
    cos = np.cos(angles).astype(block.dtype, copy=False)
    sin = np.sin(angles).astype(block.dtype, copy=False)
    even = block[:, 0::2]
    odd = block[:, 1::2]
    out = np.empty_like(block)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out


def apply_rope(
    tokens: np.ndarray,
    positions: np.ndarray,
    params: RopeParams,
    axes: Sequence[str] = ALL_AXES,
) -> np.ndarray:
    """Rotate the selected axis channel groups; unselected groups pass through
    untouched. `positions` is one (t, h, w) triple per token row."""
    tokens = np.asarray(tokens)
    pos = np.asarray(positions)
    if tokens.ndim != 2:
        raise ShapeError(f"apply_rope expects a 2-D token matrix, got shape {tokens.shape}")
    if tokens.shape[1] != params.d:
        raise ShapeError(f"token cols {tokens.shape[1]} != rope channel total {params.d}")
    if pos.ndim != 2 or pos.shape != (tokens.shape[0], 3):
        raise ShapeError(f"positions must be ({tokens.shape[0]}, 3), got {pos.shape}")
    for axis in axes:
        if axis not in ALL_AXES:
            raise ShapeError(f"unknown rope axis {axis!r}")

    slices = params.axis_slices()
    axis_pos = {TEMPORAL: pos[:, 0], HEIGHT: pos[:, 1], WIDTH: pos[:, 2]}
    widths = {TEMPORAL: params.d_t, HEIGHT: params.d_h, WIDTH: params.d_w}
    out = tokens.copy()
    for axis in axes:
        d_axis = widths[axis]
        if d_axis == 0:
            continue
        sl = slices[axis]
        out[:, sl] = _rotate_block(out[:, sl], axis_pos[axis], d_axis, params.base)
    return out


def grid_positions(grid_h: int, grid_w: int, t: int = 0) -> np.ndarray:
    """(s, 3) positions for one frame's tokens in row-major grid order."""
    hh, ww = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    s = grid_h * grid_w
    out = np.empty((s, 3), dtype=np.int64)
    out[:, 0] = t
    out[:, 1] = hh.reshape(-1)
    out[:, 2] = ww.reshape(-1)
    return out
