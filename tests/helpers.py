"""Dense helpers shared by the tests."""

import math
from typing import Iterator, NamedTuple

import numpy as np

import headkv.rollout
from headkv.assembly import EncodedSequence
from headkv.errors import ShapeError
from headkv.tensor_ops import apply_rope, softmax_rows


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d)) v. Bidirectional, no mask: the single-head
    dense form that packed attention and the row-loop oracle are checked against."""
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


def key_token_temporal(enc: EncodedSequence) -> np.ndarray:
    """(tokens,) temporal index of every key row of an encoded head."""
    idx = np.array(enc.key_frame_indices, dtype=np.int64)
    return np.repeat(idx, enc.key_rotation.tokens // len(idx))


def encoded_keys(enc: EncodedSequence, dtype: np.dtype = np.float64) -> np.ndarray:
    """An encoded head's keys as `pack` defines them: its frames' keys
    concatenated in order, cast to dtype, then rotated by its key rotation
    into a new array."""
    keys = np.concatenate([fr.keys for fr in enc.frames]).astype(dtype, copy=False)
    return apply_rope(keys, enc.key_rotation)


def encoded_values(enc: EncodedSequence) -> np.ndarray:
    """An encoded head's values in frame order."""
    return np.concatenate([fr.values for fr in enc.frames])


def root(arr: np.ndarray) -> np.ndarray:
    """The array that owns arr's memory."""
    while arr.base is not None:
        arr = arr.base
    return arr


class Retention(NamedTuple):
    """One head's evidence for the masked-attention oracle at one step."""

    provenance: np.ndarray               # (tokens, 2) source (frame, token)
    key_token_temporal: np.ndarray       # (tokens,)
    query_frame_indices: np.ndarray      # (f,)
    output: np.ndarray                   # (f*s, d)


def run_with_retention(engine: headkv.rollout.RolloutEngine, n_blocks: int,
                       schedule: list[tuple[str, int]]
                       ) -> Iterator[tuple[headkv.rollout.LatentBlock, dict[tuple[int, int], Retention]]]:
    """engine.run, yielding (block, {(layer, head): Retention}) per block.

    The evidence is read at two seams the engine already passes it through,
    each wrapped at its headkv.rollout module name: assemble returns each
    head's context, its frames and temporal indices, and packed_attention
    returns each head's output in buffer.head_ids order. Both are restored
    when the generator finishes or is closed."""
    assemble = headkv.rollout.assemble
    attend = headkv.rollout.packed_attention
    encoded: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    outputs: dict[tuple[int, int], np.ndarray] = {}

    def recording_assemble(*args):
        enc = assemble(*args)
        lh = (enc.layer, enc.head)
        assert lh not in encoded, f"head {lh} assembled twice in one step"
        encoded[lh] = (np.vstack([fr.provenance for fr in enc.frames]),
                       key_token_temporal(enc), np.array(enc.query_frame_indices, dtype=np.int64))
        return enc

    def recording_attention(buffer):
        result = attend(buffer)
        for lh, out in zip(buffer.head_ids, result):
            assert lh not in outputs, f"head {lh} attended twice in one step"
            outputs[lh] = out
        return result

    headkv.rollout.assemble = recording_assemble
    headkv.rollout.packed_attention = recording_attention
    try:
        for block, _, _ in engine.run(n_blocks, schedule):
            yield block, {lh: Retention(*encoded[lh], outputs[lh]) for lh in sorted(encoded)}
            encoded.clear()
            outputs.clear()
    finally:
        headkv.rollout.assemble = assemble
        headkv.rollout.packed_attention = attend
