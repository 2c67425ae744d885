"""Per-head context assembly, temporal re-encoding, and variable-length
packing: each head's retained frames become a flat key/value span with
per-head offsets, and one pass over the flat buffer computes every head's
attention regardless of context-length differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache import FrameKV
from .errors import IntegrityError, ShapeError
from .tensor_ops import TEMPORAL, RopeParams, apply_rope, softmax_rows, temporal_positions


@dataclass
class AssembledSequence:
    """Ordered frame context for one head; the current block occupies the
    last f_current logical frames. Keys still carry spatial-only encoding."""

    layer: int
    head: int
    frames: list[FrameKV]
    f_current: int
    temporal_encoded: bool = False

    def __post_init__(self) -> None:
        if self.f_current < 1 or self.f_current > len(self.frames):
            raise ShapeError(
                f"current block must occupy 1..{len(self.frames)} trailing frames, got {self.f_current}"
            )

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def token_count(self) -> int:
        return sum(fr.tokens for fr in self.frames)

    def provenance(self) -> np.ndarray:
        return np.vstack([fr.provenance for fr in self.frames])


def assemble(layer: int, head: int, history: Sequence[FrameKV],
             current: Sequence[FrameKV]) -> AssembledSequence:
    """History frames in policy order, then the current block's frames."""
    if not current:
        raise ShapeError("assemble requires at least the current block's frames")
    return AssembledSequence(layer=layer, head=head,
                             frames=list(history) + list(current),
                             f_current=len(current))


@dataclass
class EncodedSequence:
    """One head's attention-ready context: temporally rotated flat keys, flat
    values, and the frame-index assignment used for queries and keys."""

    layer: int
    head: int
    keys: np.ndarray                  # (tokens, d), temporal + spatial encoded
    values: np.ndarray                # (tokens, d)
    key_frame_indices: np.ndarray     # (frame_count,) temporal index per frame
    query_frame_indices: np.ndarray   # (f_current,)
    key_token_temporal: np.ndarray    # (tokens,) per-token temporal index


def encode_temporal(seq: AssembledSequence, rope: RopeParams,
                    key_frame_indices: Sequence[int],
                    query_frame_indices: Sequence[int]) -> EncodedSequence:
    """Rotate the temporal channels of a transient key copy at the given
    per-frame indices; the cached frames themselves stay spatial-only."""
    if seq.temporal_encoded:
        raise IntegrityError(
            f"head ({seq.layer}, {seq.head}) keys already temporally encoded; double rotation refused"
        )
    key_idx = np.asarray(key_frame_indices, dtype=np.int64)
    query_idx = np.asarray(query_frame_indices, dtype=np.int64)
    if key_idx.shape != (seq.frame_count,):
        raise ShapeError(f"need one temporal index per frame ({seq.frame_count}), got {key_idx.shape}")
    if query_idx.shape != (seq.f_current,):
        raise ShapeError(f"need one query index per current frame ({seq.f_current}), got {query_idx.shape}")

    flat_keys = np.vstack([fr.keys for fr in seq.frames])
    flat_values = np.vstack([fr.values for fr in seq.frames])
    token_t = np.repeat(key_idx, [fr.tokens for fr in seq.frames])
    keys = apply_rope(flat_keys, temporal_positions(token_t), rope, axes=(TEMPORAL,))
    seq.temporal_encoded = True
    return EncodedSequence(
        layer=seq.layer, head=seq.head, keys=keys, values=flat_values,
        key_frame_indices=key_idx, query_frame_indices=query_idx,
        key_token_temporal=token_t,
    )


def reencode_temporal(seq: AssembledSequence, rope: RopeParams) -> EncodedSequence:
    """Contiguous per-head re-indexing: keys take frame indices 0..F-1 in
    assembly order, queries take F-f..F-1, so every relative temporal
    distance is bounded by the head's own capacity."""
    F = seq.frame_count
    key_idx = np.arange(F, dtype=np.int64)
    query_idx = np.arange(F - seq.f_current, F, dtype=np.int64)
    return encode_temporal(seq, rope, key_idx, query_idx)


def encode_queries(q_spatial: np.ndarray, query_frame_indices: np.ndarray,
                   tokens_per_frame: int, rope: RopeParams) -> np.ndarray:
    """Temporal rotation for the current block's queries (spatial already
    applied at projection time). Query rows are frame-major."""
    if q_spatial.shape[0] != len(query_frame_indices) * tokens_per_frame:
        raise ShapeError("query rows do not match f_current * tokens_per_frame")
    t = np.repeat(np.asarray(query_frame_indices, dtype=np.int64), tokens_per_frame)
    return apply_rope(q_spatial, temporal_positions(t), rope, axes=(TEMPORAL,))


@dataclass
class PackedBuffer:
    """Flat concatenation of all heads' key/value/query spans with per-head
    offsets and lengths; the variable-length attention input."""

    keys: np.ndarray      # (total_kv, d)
    values: np.ndarray
    queries: np.ndarray   # (total_q, d)
    k_offsets: np.ndarray  # (n_heads,) int64
    k_lengths: np.ndarray
    q_offsets: np.ndarray
    q_lengths: np.ndarray
    head_ids: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_heads(self) -> int:
        return len(self.head_ids)

    def head_slice(self, idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ko, kl = int(self.k_offsets[idx]), int(self.k_lengths[idx])
        qo, ql = int(self.q_offsets[idx]), int(self.q_lengths[idx])
        return (self.queries[qo:qo + ql], self.keys[ko:ko + kl], self.values[ko:ko + kl])


def pack(sequences: Sequence[EncodedSequence], queries: Sequence[np.ndarray],
         dtype: np.dtype = np.float64) -> PackedBuffer:
    """Lay heads out in ascending (layer, head) order; offsets/lengths exactly
    describe each head's token span."""
    if len(sequences) != len(queries):
        raise ShapeError("one query matrix per encoded sequence required")
    if not sequences:
        raise ShapeError("pack requires at least one head")
    ids = [(s.layer, s.head) for s in sequences]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ShapeError("sequences must be unique and ordered by (layer, head)")

    k_lengths = np.array([s.keys.shape[0] for s in sequences], dtype=np.int64)
    q_lengths = np.array([q.shape[0] for q in queries], dtype=np.int64)
    if (k_lengths < 1).any() or (q_lengths < 1).any():
        raise ShapeError("every head needs at least one key and one query token")
    k_offsets = np.concatenate(([0], np.cumsum(k_lengths)[:-1]))
    q_offsets = np.concatenate(([0], np.cumsum(q_lengths)[:-1]))
    return PackedBuffer(
        keys=np.vstack([s.keys for s in sequences]).astype(dtype, copy=False),
        values=np.vstack([s.values for s in sequences]).astype(dtype, copy=False),
        queries=np.vstack(queries).astype(dtype, copy=False),
        k_offsets=k_offsets, k_lengths=k_lengths,
        q_offsets=q_offsets, q_lengths=q_lengths,
        head_ids=ids,
    )


def _check_integrity(buffer: PackedBuffer) -> None:
    for name, offsets, lengths, flat in (
        ("key", buffer.k_offsets, buffer.k_lengths, buffer.keys),
        ("query", buffer.q_offsets, buffer.q_lengths, buffer.queries),
    ):
        if len(offsets) != buffer.n_heads or len(lengths) != buffer.n_heads:
            raise IntegrityError(f"{name} offset table does not match head count")
        if (lengths < 1).any():
            raise IntegrityError(f"{name} span with non-positive length")
        # prefix-sum equality implies strictly increasing, non-overlapping spans
        expected = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        if not np.array_equal(offsets, expected):
            raise IntegrityError(f"{name} offsets are not the prefix sums of lengths")
        if int(lengths.sum()) != flat.shape[0]:
            raise IntegrityError(f"{name} lengths sum to {int(lengths.sum())}, flat size is {flat.shape[0]}")
    if buffer.values.shape[0] != buffer.keys.shape[0]:
        raise IntegrityError("key and value flats differ in length")


def packed_attention(buffer: PackedBuffer) -> list[np.ndarray]:
    """One pass over the flat buffer honoring per-head boundaries; output i is
    head i's attention over its own span."""
    _check_integrity(buffer)
    d = buffer.keys.shape[1]
    scale = 1.0 / np.sqrt(d)
    outputs: list[np.ndarray] = []
    for idx in range(buffer.n_heads):
        q, k, v = buffer.head_slice(idx)
        if q.shape[1] != d:
            raise IntegrityError("query width differs from key width")
        scores = q @ k.T
        scores *= scale
        outputs.append(softmax_rows(scores) @ v)
    return outputs

