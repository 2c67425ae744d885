"""Minimal dense numerics: row softmax and 3-axis rotary position encoding
with temporal/height/width channel groups. A rotation is built once per
position set (`rope_rotation`; every temporal one through the cached
`frame_rotation`, which serves each prefix range(n) of frames as a view of
one rotation of a power-of-two frame count) and applied to any number of
token matrices with `apply_rope`.

All functions operate on plain numpy arrays (rows = tokens, cols =
channels) and are pure, except that `softmax_rows` and `apply_rope` write
into an `out=` array when one is given. Double precision is the reference
path; callers may pass float32 arrays for the relaxed-tolerance fast path.
"""

from __future__ import annotations

import functools
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
    def default_for(cls, d: int) -> "RopeParams":
        """Half the channels temporal, a quarter each for height/width."""
        if d % 4 != 0:
            raise ShapeError(f"default channel split needs d divisible by 4, got {d}; pass an explicit split")
        return cls(d_t=d // 2, d_h=d // 4, d_w=d // 4)


def softmax_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction. Preserves shape and
    dtype. The result is written to `out`, which may be `m` itself for an
    in-place softmax; without `out` it is one new buffer and the input is
    left unchanged."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got shape {m.shape}")
    # np.maximum.reduce and np.add.reduce are what .max and .sum call
    out = np.subtract(m, np.maximum.reduce(m, axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1, keepdims=True)
    return out


@functools.lru_cache(maxsize=32)
def rope_table(d_axis: int, base: float, size: int) -> np.ndarray:
    """Read-only (size, d_axis/2) complex128 rotations e^{i*angle} for
    positions 0..size-1. Column j rotates the channel pair (2j, 2j+1), read
    as the complex number x[2j] + i*x[2j+1]; angle = pos * base**(-2j/d_axis)."""
    inv_freq = base ** (-2.0 * np.arange(d_axis // 2, dtype=np.float64) / d_axis)
    table = np.exp(1j * (np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]))
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class Rotation:
    """A RoPE rotation built once for a fixed set of positions and applied by
    `apply_rope` to any (tokens, d) matrix. Each run is (first complex column,
    read-only complex128 rows of shape (tokens, width)); the channel pairs in
    columns first..first+width-1 of the token matrix, viewed as complex
    numbers, are multiplied by the rows. Adjacent selected axis groups share
    one run."""

    d: int
    tokens: int
    runs: tuple[tuple[int, np.ndarray], ...]


def rope_rotation(positions: np.ndarray, params: RopeParams,
                  axes: Sequence[str] = ALL_AXES) -> Rotation:
    """The rotation of the selected axis channel groups at `positions`, one
    non-negative integer (t, h, w) triple per token row; unselected groups
    pass through untouched. Rows come from `rope_table`, sized to the next
    power of two above the axis's largest position."""
    pos = np.asarray(positions)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ShapeError(f"positions must be (tokens, 3), got {pos.shape}")
    if pos.dtype.kind not in "iu":
        raise ShapeError(f"rope positions must be integers, got dtype {pos.dtype}")
    for axis in axes:
        if axis not in ALL_AXES:
            raise ShapeError(f"unknown rope axis {axis!r}")

    runs: list[tuple[int, list[np.ndarray]]] = []
    start = end = 0
    for column, (axis, d_axis) in enumerate(zip(ALL_AXES, (params.d_t, params.d_h, params.d_w))):
        if axis in axes and d_axis:
            p = pos[:, column]
            # OR of non-negative ints has the bit length of their max; any
            # negative one makes it negative
            bits = int(np.bitwise_or.reduce(p))
            if bits < 0:
                raise ShapeError("rope positions must be non-negative")
            rows = rope_table(d_axis, params.base, 1 << bits.bit_length()).take(p, axis=0)
            if runs and end == start:
                runs[-1][1].append(rows)
            else:
                runs.append((start, [rows]))
            end = start + d_axis // 2
        start += d_axis // 2
    return Rotation(d=params.d, tokens=pos.shape[0],
                    runs=tuple((first, _read_only(parts)) for first, parts in runs))


def _read_only(parts: list[np.ndarray]) -> np.ndarray:
    rows = parts[0] if len(parts) == 1 else np.hstack(parts)
    rows.flags.writeable = False
    return rows


def apply_rope(tokens: np.ndarray, rotation: Rotation, out: np.ndarray | None = None) -> np.ndarray:
    """`tokens` rotated, float32 or float64 with rotation.tokens rows and
    rotation.d columns: one complex multiply per run of the rotation. The
    result is written to `out`, an array of the same shape and dtype whose
    rows are contiguous, which may be `tokens` itself for an in-place
    rotation; without `out` it is one new array and the input is left
    unchanged."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"apply_rope expects a 2-D token matrix, got shape {tokens.shape}")
    complex_type = _COMPLEX_OF.get(tokens.dtype)
    if complex_type is None:
        raise ShapeError(f"rope tokens must be float32 or float64, got dtype {tokens.dtype}")
    if tokens.shape != (rotation.tokens, rotation.d):
        raise ShapeError(f"tokens {tokens.shape} do not match the rotation's "
                         f"({rotation.tokens}, {rotation.d})")
    if out is None:
        out = tokens.copy()                  # C order, so pairs are adjacent
    elif out.shape != tokens.shape or out.dtype != tokens.dtype or out.strides[1] != out.itemsize:
        raise ShapeError(f"rope out must be a {tokens.shape} {tokens.dtype} matrix with contiguous rows")
    elif out is not tokens:
        out[...] = tokens
    pairs = out.view(complex_type)
    for first, rows in rotation.runs:
        pairs[:, first:first + rows.shape[1]] *= rows
    return out


def _is_prefix(frame_indices: tuple[int, ...]) -> bool:
    n = len(frame_indices)
    return n > 0 and frame_indices[-1] == n - 1 and frame_indices == tuple(range(n))


def _temporal_rotation(frame_indices: Sequence[int], tokens_per_frame: int, params: RopeParams) -> Rotation:
    positions = np.zeros((len(frame_indices) * tokens_per_frame, 3), dtype=np.int64)
    positions[:, 0] = np.repeat(np.asarray(frame_indices, dtype=np.int64), tokens_per_frame)
    return rope_rotation(positions, params, (TEMPORAL,))


@functools.lru_cache(maxsize=1)
def _prefix_table(tokens_per_frame: int, params: RopeParams, frames: int) -> Rotation:
    """The temporal rotation of range(frames), frames a power of two; every
    shorter prefix is a view of its rows. One is kept: a held view keeps a
    replaced one alive."""
    return _temporal_rotation(range(frames), tokens_per_frame, params)


@functools.lru_cache(maxsize=16)
def frame_rotation(frame_indices: tuple[int, ...], tokens_per_frame: int,
                   params: RopeParams) -> Rotation:
    """Temporal-only rotation of frames at the given non-negative indices,
    tokens_per_frame rows each: the one temporal rotation, for head-wise
    re-indexing, window baselines and profiling alike. Cached by the index
    tuple: every caller shares the returned object, whose rows are read-only.
    A prefix range(n) is a view of the rotation of the next power of two
    frames."""
    if not _is_prefix(frame_indices):
        return _temporal_rotation(frame_indices, tokens_per_frame, params)
    tokens = len(frame_indices) * tokens_per_frame
    table = _prefix_table(tokens_per_frame, params, 1 << (len(frame_indices) - 1).bit_length())
    return Rotation(d=params.d, tokens=tokens, runs=tuple((first, rows[:tokens]) for first, rows in table.runs))


def grid_positions(grid_h: int, grid_w: int) -> np.ndarray:
    """(s, 3) positions for one frame's tokens in row-major grid order, at
    temporal position 0."""
    hh, ww = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    s = grid_h * grid_w
    out = np.zeros((s, 3), dtype=np.int64)
    out[:, 1] = hh.reshape(-1)
    out[:, 2] = ww.reshape(-1)
    return out
