"""Minimal dense numerics: row softmax, scaled dot-product attention, and
3-axis rotary position encoding with temporal/height/width channel groups.

All functions are pure and operate on plain numpy arrays (rows = tokens,
cols = channels). Double precision is the reference path; callers may pass
float32 arrays for the relaxed-tolerance fast path.
"""

from __future__ import annotations

import functools
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
_COMPLEX_OF = {np.dtype(np.float64): np.complex128, np.dtype(np.float32): np.complex64}


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


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction. Preserves shape and
    dtype; the input is left unchanged and the result is one new buffer."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got shape {m.shape}")
    out = m - m.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


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


@functools.lru_cache(maxsize=32)
def rope_table(d_axis: int, base: float, size: int) -> np.ndarray:
    """Read-only (size, d_axis/2) complex128 rotations e^{i*angle} for
    positions 0..size-1. Column j rotates the channel pair (2j, 2j+1), read
    as the complex number x[2j] + i*x[2j+1]; angle = pos * base**(-2j/d_axis)."""
    inv_freq = base ** (-2.0 * np.arange(d_axis // 2, dtype=np.float64) / d_axis)
    table = np.exp(1j * (np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]))
    table.flags.writeable = False
    return table


def apply_rope(
    tokens: np.ndarray,
    positions: np.ndarray,
    params: RopeParams,
    axes: Sequence[str] = ALL_AXES,
) -> np.ndarray:
    """Rotate the selected axis channel groups; unselected groups pass through
    untouched. `tokens` are float32 or float64; `positions` is one
    non-negative integer (t, h, w) triple per token row. Each selected
    group's channel pairs, viewed as complex numbers, are multiplied by rows
    of `rope_table`, sized to the next power of two above the axis's largest
    position."""
    tokens = np.asarray(tokens)
    pos = np.asarray(positions)
    if tokens.ndim != 2:
        raise ShapeError(f"apply_rope expects a 2-D token matrix, got shape {tokens.shape}")
    if tokens.dtype not in _COMPLEX_OF:
        raise ShapeError(f"rope tokens must be float32 or float64, got dtype {tokens.dtype}")
    if tokens.shape[1] != params.d:
        raise ShapeError(f"token cols {tokens.shape[1]} != rope channel total {params.d}")
    if pos.ndim != 2 or pos.shape != (tokens.shape[0], 3):
        raise ShapeError(f"positions must be ({tokens.shape[0]}, 3), got {pos.shape}")
    if pos.dtype.kind not in "iu":
        raise ShapeError(f"rope positions must be integers, got dtype {pos.dtype}")
    for axis in axes:
        if axis not in ALL_AXES:
            raise ShapeError(f"unknown rope axis {axis!r}")

    out = tokens.copy()                      # C order, so pairs are adjacent
    pairs = out.view(_COMPLEX_OF[tokens.dtype])
    start = 0
    for column, (axis, d_axis) in enumerate(zip(ALL_AXES, (params.d_t, params.d_h, params.d_w))):
        if axis in axes and d_axis:
            p = pos[:, column]
            # OR of non-negative ints has the bit length of their max; any
            # negative one makes it negative
            bits = int(np.bitwise_or.reduce(p))
            if bits < 0:
                raise ShapeError("rope positions must be non-negative")
            rows = rope_table(d_axis, params.base, 1 << bits.bit_length()).take(p, axis=0)
            pairs[:, start:start + d_axis // 2] *= rows
        start += d_axis // 2
    return out


def temporal_positions(token_t: np.ndarray) -> np.ndarray:
    """(tokens, 3) positions carrying only each token's temporal index."""
    out = np.zeros((token_t.shape[0], 3), dtype=np.int64)
    out[:, 0] = token_t
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
