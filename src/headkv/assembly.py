"""Per-head context assembly, temporal re-encoding, and variable-length
packing: each head's retained frames are copied once into a flat key/value
span described by its length, and its keys are rotated there; one pass over
the flat buffer computes every head's attention regardless of
context-length differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .cache import FrameKV
from .errors import IntegrityError, ShapeError
from .tensor_ops import RopeParams, Rotation, apply_rope, frame_rotation, softmax_rows


@dataclass
class EncodedSequence:
    """One head's attention-ready context: its frames in policy order, the
    current block's last, with keys still spatial-only; the temporal index
    per key frame and per query frame; and the two temporal rotations they
    stand for. `pack` copies the frames into the attention workspace and
    rotates the keys there."""

    layer: int
    head: int
    frames: list[FrameKV]                  # every frame holds the same number of tokens
    key_frame_indices: tuple[int, ...]     # temporal index per frame
    query_frame_indices: tuple[int, ...]   # f_current of them
    key_rotation: Rotation                 # one row per key token
    query_rotation: Rotation               # f_current * tokens_per_frame rows

    @property
    def frame_count(self) -> int:
        return len(self.frames)


def assemble(layer: int, head: int, frames: list[FrameKV], f_current: int,
             key_frame_indices: tuple[int, ...], rope: RopeParams) -> EncodedSequence:
    """One head's context: `frames` in policy order, kept as given, of which
    the last f_current are the current block's, each at its key frame index.
    The queries take the last f_current indices, the current block's. Both
    rotations come from the `frame_rotation` cache and the frames stay
    spatial-only, so assembling twice does no harm."""
    if f_current < 1 or f_current > len(frames):
        raise ShapeError(f"current block must occupy 1..{len(frames)} trailing frames, got {f_current}")
    if len({fr.keys.shape[0] for fr in frames}) != 1:
        raise ShapeError(f"head ({layer}, {head}) frames hold differing token counts")
    if len(key_frame_indices) != len(frames):
        raise ShapeError(f"head ({layer}, {head}) has {len(frames)} frames "
                         f"but {len(key_frame_indices)} key frame indices")
    s = frames[0].tokens
    query_idx = key_frame_indices[-f_current:]
    return EncodedSequence(
        layer=layer, head=head, frames=frames,
        key_frame_indices=key_frame_indices, query_frame_indices=query_idx,
        key_rotation=frame_rotation(key_frame_indices, s, rope), query_rotation=frame_rotation(query_idx, s, rope),
    )


def encode_temporal(frames: Sequence[FrameKV]) -> tuple[int, ...]:
    """Temporal encoding at global frame indices (the window baselines): each
    frame at its own."""
    # from a list, not a generator: tuple() of a generator over-allocates and
    # shrinks, and the shrunk tuples pile up on CPython's tuple free list
    return tuple([fr.global_frame_index for fr in frames])


def reencode_temporal(frames: Sequence[FrameKV]) -> tuple[int, ...]:
    """Contiguous per-head re-indexing: frames take indices 0..F-1 in
    assembly order, so every relative temporal distance is bounded by the
    head's own capacity."""
    return tuple(range(len(frames)))


def encode_queries(q_spatial: np.ndarray, enc: EncodedSequence) -> np.ndarray:
    """Temporal rotation of the current block's frame-major queries (spatial
    already applied at projection time) at enc's query indices."""
    return apply_rope(q_spatial, enc.query_rotation)


class Workspace:
    """Grow-only scratch for `pack` and `packed_attention`: one flat array per
    dtype, replaced only when a request outgrows it, by one of the next power
    of two elements, so a growing context reallocates O(log n) times. Each
    `RolloutEngine` owns one."""

    def __init__(self) -> None:
        self._flats: dict[np.dtype, np.ndarray] = {}

    def flat(self, dtype: np.dtype, size: int) -> np.ndarray:
        """A 1-D array of at least `size` elements of `dtype`, contents undefined."""
        dtype = np.dtype(dtype)
        flat = self._flats.get(dtype)
        if flat is None or flat.size < size:
            flat = self._flats[dtype] = np.empty(1 << (size - 1).bit_length(), dtype=dtype)
        return flat


@dataclass
class PackedBuffer:
    """Flat concatenation of all heads' key/value/query spans, described by
    per-head lengths alone: head i's span starts at the sum of the lengths
    before it. With scratch for one head's scores, the variable-length
    attention input. The arrays are views of the workspace it was packed
    into, valid until the next `pack` into that workspace."""

    keys: np.ndarray       # (total_kv, d)
    values: np.ndarray
    queries: np.ndarray    # (total_q, d)
    k_lengths: np.ndarray  # (n_heads,) int64
    q_lengths: np.ndarray
    scores: np.ndarray     # 1-D, room for max(q_lengths) * max(k_lengths)
    head_ids: list[tuple[int, int]]

    @property
    def n_heads(self) -> int:
        return len(self.head_ids)


def pack(sequences: Sequence[EncodedSequence], queries: Sequence[np.ndarray],
         dtype: np.dtype = np.float64, workspace: Workspace | None = None) -> PackedBuffer:
    """Lay heads out in ascending (layer, head) order in `workspace` (a fresh
    one when None); the lengths exactly describe each head's token span.
    Every head's frames are copied once, cast to dtype, and its key span is
    then rotated in place by its key rotation. So values and queries hold
    the bits of `np.concatenate(...).astype(dtype)`, and in float64 the keys
    those of `apply_rope(np.concatenate(keys), key_rotation)`; float32 keys
    are cast first and rotated in float32."""
    if len(sequences) != len(queries):
        raise ShapeError("one query matrix per encoded sequence required")
    if not sequences:
        raise ShapeError("pack requires at least one head")
    ids = [(s.layer, s.head) for s in sequences]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ShapeError("sequences must be unique and ordered by (layer, head)")

    # a head's frames hold equal token counts (`assemble`); each
    # key rotation is checked against its span by `apply_rope`
    k_lengths = [len(s.frames) * s.frames[0].tokens for s in sequences]
    q_lengths = [q.shape[0] for q in queries]
    if min(k_lengths) < 1 or min(q_lengths) < 1:
        raise ShapeError("every head needs at least one key and one query token")
    k_ends = list(accumulate(k_lengths, initial=0))
    frames = [fr for s in sequences for fr in s.frames]
    # keys, values and queries, then the score scratch, in one flat
    parts = [([fr.keys for fr in frames], k_ends[-1]), ([fr.values for fr in frames], k_ends[-1]),
             (queries, sum(q_lengths))]
    sizes = [rows * arrays[0].shape[1] for arrays, rows in parts]
    n_scores = max(q_lengths) * max(k_lengths)
    flat = (workspace or Workspace()).flat(dtype, sum(sizes) + n_scores)
    flats, start = [], 0
    for (arrays, rows), size in zip(parts, sizes):
        flats.append(np.concatenate(arrays, out=flat[start:start + size].reshape(rows, -1),
                                    casting="same_kind"))
        start += size
    keys = flats[0]
    for seq, k_start, k_end in zip(sequences, k_ends, k_ends[1:]):
        span = keys[k_start:k_end]
        apply_rope(span, seq.key_rotation, out=span)
    return PackedBuffer(
        keys=keys, values=flats[1], queries=flats[2],
        k_lengths=np.array(k_lengths, dtype=np.int64), q_lengths=np.array(q_lengths, dtype=np.int64),
        scores=flat[start:start + n_scores], head_ids=ids,
    )


def _check_integrity(buffer: PackedBuffer) -> list[list[int]]:
    """Check the length tables against the flats; returns them as lists:
    key lengths, query lengths."""
    tables = []
    for name, lengths, flat in (("key", buffer.k_lengths, buffer.keys),
                                ("query", buffer.q_lengths, buffer.queries)):
        lengths = lengths.tolist()
        if len(lengths) != buffer.n_heads:
            raise IntegrityError(f"{name} length table does not match head count")
        if min(lengths, default=1) < 1:
            raise IntegrityError(f"{name} span with non-positive length")
        if sum(lengths) != flat.shape[0]:
            raise IntegrityError(f"{name} lengths sum to {sum(lengths)}, flat size is {flat.shape[0]}")
        tables.append(lengths)
    if buffer.values.shape[0] != buffer.keys.shape[0]:
        raise IntegrityError("key and value flats differ in length")
    return tables


def packed_attention(buffer: PackedBuffer) -> list[np.ndarray]:
    """One pass over the flat buffer honoring per-head boundaries; output i is
    head i's attention over its own span, a fresh array. Each head's scores
    and their softmax are computed in place in `buffer.scores`."""
    k_lengths, q_lengths = _check_integrity(buffer)
    keys, values, queries, scratch = buffer.keys, buffer.values, buffer.queries, buffer.scores
    d = keys.shape[1]
    if queries.shape[1] != d:
        raise IntegrityError("query width differs from key width")
    if scratch.size < max(q_lengths) * max(k_lengths):
        raise IntegrityError(f"score scratch of {scratch.size} cannot hold the largest head's scores")
    scale = 1.0 / np.sqrt(d)
    outputs: list[np.ndarray] = []
    for ko, kl, qo, ql in zip(accumulate(k_lengths, initial=0), k_lengths,
                              accumulate(q_lengths, initial=0), q_lengths):
        scores = np.matmul(queries[qo:qo + ql], keys[ko:ko + kl].T, out=scratch[:ql * kl].reshape(ql, kl))
        scores *= scale
        outputs.append(softmax_rows(scores, out=scores) @ values[ko:ko + kl])
    return outputs
