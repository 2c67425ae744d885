"""Independent brute-force references used by tests and the acceptance gate.

Every routine here deliberately avoids the fast paths it checks: attention is
computed row-at-a-time with elementwise reductions instead of one matmul plus
batched softmax, temporal rotation is a per-pair scalar loop, and the
selection oracles are exhaustive pure-Python enumerations. Agreement within
tolerance is the test; code is never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .cache import FrameKV
from .errors import ConfigError, SequencingError, ShapeError
from .model import ModelConfig, ModelWeights, block_input
from .rollout import LatentBlock, _expand_schedule
from .tensor_ops import SPATIAL_AXES, RopeParams, apply_rope, grid_positions, rope_rotation


def attention_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-loop scaled-dot attention: per-query elementwise score reduction,
    per-row normalization, and a per-key weighted accumulation of values."""
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError("attention_rows operand shapes disagree")
    scale = 1.0 / math.sqrt(k.shape[1])
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.float64)
    for r in range(q.shape[0]):
        scores = np.sum(k * q[r], axis=1) * scale
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        out[r] = np.sum(weights[:, None] * v, axis=0)
    return out


def rotate_temporal_rows(rows: np.ndarray, t_indices: np.ndarray, rope: RopeParams) -> np.ndarray:
    """Scalar-loop temporal rotation of the leading d_t channels."""
    out = np.array(rows, dtype=np.float64, copy=True)
    half = rope.d_t // 2
    for r in range(out.shape[0]):
        t = float(t_indices[r])
        for j in range(half):
            angle = t * rope.base ** (-2.0 * j / rope.d_t)
            c, s = math.cos(angle), math.sin(angle)
            a, b = out[r, 2 * j], out[r, 2 * j + 1]
            out[r, 2 * j] = a * c - b * s
            out[r, 2 * j + 1] = a * s + b * c
    return out


def full_attention_reference(history_keys: np.ndarray, history_values: np.ndarray,
                             history_frame_indices: np.ndarray,
                             q_spatial: np.ndarray, q_frame_indices: np.ndarray,
                             tokens_per_frame: int, rope: RopeParams) -> np.ndarray:
    """Unbounded-context attention with global temporal indexing: every
    history token plus the current block, keys rotated at their own frame
    index, queries at theirs."""
    key_t = np.repeat(np.asarray(history_frame_indices, dtype=np.int64), tokens_per_frame)
    k = rotate_temporal_rows(history_keys, key_t, rope)
    q_t = np.repeat(np.asarray(q_frame_indices, dtype=np.int64), tokens_per_frame)
    q = rotate_temporal_rows(q_spatial, q_t, rope)
    return attention_rows(q, k, history_values)


@dataclass
class FrameArchive:
    """All frames' spatially encoded keys and raw values for one rollout,
    indexed by (layer, head) then global frame."""

    keys: dict[tuple[int, int], list[np.ndarray]] = field(default_factory=dict)
    values: dict[tuple[int, int], list[np.ndarray]] = field(default_factory=dict)

    @classmethod
    def from_blocks(cls, blocks: Iterable[LatentBlock]) -> "FrameArchive":
        """Archive of every block's frames, in block order; the blocks must
        carry their keys and values, as the blocks `RolloutEngine.run` yields do."""
        arch = cls()
        for block in blocks:
            if not block.kv:
                raise ConfigError(f"block {block.index} has no keys and values; no archive available")
            for frame in block.kv:
                for lh, fr in frame.items():
                    arch.keys.setdefault(lh, []).append(fr.keys)
                    arch.values.setdefault(lh, []).append(fr.values)
        return arch


def masked_attention_reference(archive: FrameArchive, layer: int, head: int,
                               provenance: np.ndarray, key_token_temporal: np.ndarray,
                               q_spatial: np.ndarray, query_frame_indices: np.ndarray,
                               tokens_per_frame: int, rope: RopeParams) -> np.ndarray:
    """Full attention restricted to exactly the tokens a head retained, with
    the head's own temporal index map. Token rows are rebuilt from the
    archive via provenance, so summary tokens resolve to their sources."""
    keys_by_frame = archive.keys[(layer, head)]
    vals_by_frame = archive.values[(layer, head)]
    n = provenance.shape[0]
    d = keys_by_frame[0].shape[1]
    k_rows = np.empty((n, d), dtype=np.float64)
    v_rows = np.empty((n, d), dtype=np.float64)
    for r in range(n):
        frame, token = int(provenance[r, 0]), int(provenance[r, 1])
        k_rows[r] = keys_by_frame[frame][token]
        v_rows[r] = vals_by_frame[frame][token]
    k = rotate_temporal_rows(k_rows, key_token_temporal, rope)
    q_t = np.repeat(np.asarray(query_frame_indices, dtype=np.int64), tokens_per_frame)
    q = rotate_temporal_rows(q_spatial, q_t, rope)
    return attention_rows(q, k, v_rows)


# -- exhaustive selection oracles ------------------------------------------


def _pooled(frame: FrameKV) -> list[float]:
    return [float(x) for x in frame.keys.mean(axis=0)]


def _cos(a, b) -> float:
    num = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


def brute_force_novelty(candidate: dict, entries: list[dict]) -> float:
    """Max over entries of the (layer, head)-averaged pooled-key cosine;
    -1 for an empty memory."""
    if not entries:
        return -1.0
    heads = sorted(candidate)
    best = -math.inf
    for entry in entries:
        sims = [_cos(_pooled(candidate[lh]), _pooled(entry[lh])) for lh in heads]
        best = max(best, math.fsum(sims) / len(sims))
    return best


def brute_force_pair(entries: list[dict]) -> tuple[int, int]:
    heads = sorted(entries[0])
    best, best_sim = (0, 1), -math.inf
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            sims = [_cos(_pooled(entries[i][lh]), _pooled(entries[j][lh])) for lh in heads]
            sim = math.fsum(sims) / len(sims)
            if sim > best_sim:
                best_sim, best = sim, (i, j)
    return best


def brute_force_victim(entries: list[dict]) -> int:
    """Index (>= 1; 0 is the summary) of the non-summary entry with the
    highest mean similarity to its adjacent non-summary neighbors."""
    heads = sorted(entries[0])
    n = len(entries)
    best_idx, best_score = 1, -math.inf
    for idx in range(1, n):
        neighbors = [j for j in (idx - 1, idx + 1) if 1 <= j < n]
        total = 0.0
        for j in neighbors:
            sims = [_cos(_pooled(entries[idx][lh]), _pooled(entries[j][lh])) for lh in heads]
            total += math.fsum(sims) / len(sims)
        score = total / len(neighbors)
        if score > best_score:
            best_score, best_idx = score, idx
    return best_idx


def brute_force_topk(scores: list[float], k: int) -> list[int]:
    """Top-k indices by descending score, ties by ascending position: a full
    sort of (score, index) pairs."""
    ranked = sorted(range(len(scores)), key=lambda n: (-scores[n], n))
    return ranked[:k]


# -- from-scratch recompute generator ---------------------------------------


class ReferenceGenerator:
    """Unbounded-context generation with none of the cache machinery: per-head
    key/value lists are plain appended arrays, attention runs through the
    row-loop reference, and temporal indices are global. Serves as the
    recompute oracle and the fidelity baseline."""

    def __init__(self, weights: ModelWeights, config: ModelConfig, rope: RopeParams):
        if weights.config != config:
            raise ConfigError("model weights were built for a different model config")
        self.weights = weights
        self.config = config
        self.rope = rope
        self._keys: dict[tuple[int, int], list[np.ndarray]] = {lh: [] for lh in config.heads}
        self._values: dict[tuple[int, int], list[np.ndarray]] = {lh: [] for lh in config.heads}
        self._last_block = 0
        frame_grid = grid_positions(config.grid_h, config.grid_w)
        self._spatial = rope_rotation(np.tile(frame_grid, (config.f, 1)), rope, SPATIAL_AXES)

    def run(self, n_blocks: int, schedule: list[tuple[str, int]]) -> list[LatentBlock]:
        return [self.step(i, prompt) for i, prompt in enumerate(_expand_schedule(schedule, n_blocks), 1)]

    def step(self, i: int, prompt: str) -> LatentBlock:
        """Block i against every frame generated so far; blocks must be
        stepped in order from 1."""
        if i != self._last_block + 1:
            raise SequencingError(f"reference step for block {i} but it last stepped block {self._last_block}")
        self._last_block = i
        cfg = self.config
        f, s = cfg.f, cfg.s
        hidden = block_input(self.weights, prompt, i)
        base = f * (i - 1)
        q_frames = np.arange(base, base + f, dtype=np.int64)
        for l in range(cfg.L):
            delta = np.zeros_like(hidden)
            for h in range(cfg.H):
                q = hidden @ self.weights.wq[l, h]
                k = hidden @ self.weights.wk[l, h]
                v = hidden @ self.weights.wv[l, h]
                q = apply_rope(q, self._spatial)
                k = apply_rope(k, self._spatial)
                all_keys = np.vstack(self._keys[(l, h)] + [k])
                all_values = np.vstack(self._values[(l, h)] + [v])
                frame_indices = np.arange(base + f, dtype=np.int64)
                out = full_attention_reference(
                    all_keys, all_values, frame_indices, q, q_frames, s, self.rope,
                )
                self._keys[(l, h)].append(k)
                self._values[(l, h)].append(v)
                delta += out @ self.weights.wo[l, h]
            hidden = hidden + delta
        frames = [hidden[t * s:(t + 1) * s].copy() for t in range(f)]
        return LatentBlock(index=i, frames=frames)


def token_cosine_fidelity(frames: list[np.ndarray], reference: list[np.ndarray]) -> float:
    """Mean per-token cosine similarity between a block's latents and the
    reference generator's; the desk-scale stand-in for perceptual metrics."""
    a = np.vstack(frames)
    b = np.vstack(reference)
    if a.shape != b.shape:
        raise ShapeError("fidelity operands differ in shape")
    dots = np.sum(a * b, axis=1)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    cos = np.where(norms == 0.0, 1.0, dots / safe)
    return float(cos.mean())
