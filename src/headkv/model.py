"""Deterministic seeded multi-head attention substrate.

The model is attention + residual only (no MLPs): every cache mechanism under
study touches only Q/K/V and the caches, so modeling power is irrelevant.
Weights, block inputs, and prompt embeddings are all derived from named RNG
streams so that two builds produce bit-identical values for the same seed.

RNG stream layout (numpy SeedSequence spawn keys):
    [seed, 0]                      weights, fill order: embed, then per layer
                                   l = 0..L-1, per head h = 0..H-1: wq, wk, wv, wo
    [seed, 1, prompt_key]          prompt embedding vector
    [seed, 2, prompt_key, scene]   per-scene base noise for block inputs
    [seed, 3, i]                   per-block input wiggle
    [seed, 4, i, r]                measurement perturbations (profiling repeats)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_WEIGHT_STREAM = 0
_PROMPT_STREAM = 1
_SCENE_STREAM = 2
_WIGGLE_STREAM = 3
_PERTURB_STREAM = 4

# Residual-stack contraction: per-head output projections are clamped so the
# summed attention contribution cannot amplify history norms run over run.
_OUTPUT_GAIN = 0.5
# Query/key spectral target. Large enough that attention scores spread over a
# few units and head-dependent self-affinity shows up as concentrated
# attention; value/output stay at contractive scales.
_QK_GAIN = 3.0
# Weight of the prompt embedding in every block input.
_PROMPT_STRENGTH = 0.05
# Scale of the seeded input perturbation that emulates a profiling repeat.
_PERTURB_SCALE = 0.05


@dataclass(frozen=True)
class ModelConfig:
    """Substrate dimensions. L layers, H heads of d channels, s tokens per
    frame on a grid_h x grid_w grid, f frames per autoregressive block."""

    L: int
    H: int
    d: int
    s: int
    f: int
    grid_h: int
    grid_w: int
    seed: int = 0
    # Input dynamics: blocks within a scene share a base noise pattern plus a
    # small per-block wiggle, so episodic novelty sees scenes, not iid frames.
    scene_period: int = 1
    scene_jitter: float = 0.05

    def __post_init__(self) -> None:
        for name in ("L", "H", "d", "s", "f", "grid_h", "grid_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        if self.grid_h * self.grid_w != self.s:
            raise ConfigError(f"grid_h*grid_w = {self.grid_h * self.grid_w} != s = {self.s}")
        if self.d % 2 != 0:
            raise ConfigError(f"model.d must be even, got {self.d}")
        if self.seed < 0:
            raise ConfigError("model.seed must be non-negative")
        if self.scene_period < 1:
            raise ConfigError("model.scene_period must be >= 1")
        # the wiggle is a share of the scene's noise
        if not 0.0 <= self.scene_jitter <= 1.0:
            raise ConfigError(f"model.scene_jitter must be in [0, 1], got {self.scene_jitter}")

    @property
    def d_model(self) -> int:
        return self.H * self.d

    @property
    def heads(self) -> list[tuple[int, int]]:
        return [(l, h) for l in range(self.L) for h in range(self.H)]


def _prompt_key(prompt: str) -> int:
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _clamp_spectral(w: np.ndarray, target: float) -> np.ndarray:
    smax = float(np.linalg.svd(w, compute_uv=False)[0])
    if smax > target:
        w = w * (target / smax)
    return w


@dataclass
class ModelWeights:
    config: ModelConfig
    embed: np.ndarray          # (d_model, d_model)
    wq: np.ndarray             # (L, H, d_model, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray             # (L, H, d, d_model)
    _prompt_table: dict[str, np.ndarray] = field(default_factory=dict)

    def prompt_embedding(self, prompt: str) -> np.ndarray:
        """Seeded stand-in for a text-encoder embedding; cached per string."""
        vec = self._prompt_table.get(prompt)
        if vec is None:
            rng = _rng(self.config.seed, _PROMPT_STREAM, _prompt_key(prompt))
            vec = rng.standard_normal(self.config.d_model)
            self._prompt_table[prompt] = vec
        return vec

    def prompt_key_vector(self, prompt: str, layer: int, head: int) -> np.ndarray:
        """Prompt embedding pushed through a head's key projection (1 x d pooled)."""
        return self.prompt_embedding(prompt) @ self.wk[layer, head]


def init_model(config: ModelConfig) -> ModelWeights:
    """Draw all projection matrices from the documented seeded stream.

    Entries start at N(0, 1/d); each matrix is then spectrally clamped
    (embed/q/k/v to 1.0, output projections to 0.5/(L*H)) so that residual
    accumulation over long rollouts stays finite. Heads are heterogeneous by
    construction: query projections mix in a head-dependent share of the key
    projection (0, 0.45, or 0.9 by head index mod 3), so token self-affinity
    and hence current-block attention mass differ across heads and the
    profiler has real structure to measure. Untrained random heads would all
    attend near-uniformly.
    """
    rng = _rng(config.seed, _WEIGHT_STREAM)
    dm, d = config.d_model, config.d
    scale = 1.0 / np.sqrt(d)

    embed = _clamp_spectral(rng.standard_normal((dm, dm)) * scale, 1.0)
    wq = np.empty((config.L, config.H, dm, d))
    wk = np.empty((config.L, config.H, dm, d))
    wv = np.empty((config.L, config.H, dm, d))
    wo = np.empty((config.L, config.H, d, dm))
    out_target = _OUTPUT_GAIN / (config.L * config.H)
    for l in range(config.L):
        for h in range(config.H):
            q_raw = rng.standard_normal((dm, d)) * scale
            k_raw = rng.standard_normal((dm, d)) * scale
            mix = 0.45 * (h % 3)
            wq[l, h] = _clamp_spectral((1.0 - mix) * q_raw + mix * k_raw, _QK_GAIN)
            wk[l, h] = _clamp_spectral(k_raw, _QK_GAIN)
            wv[l, h] = _clamp_spectral(rng.standard_normal((dm, d)) * scale, 1.0)
            wo[l, h] = _clamp_spectral(rng.standard_normal((d, dm)) * scale, out_target)
    return ModelWeights(config=config, embed=embed, wq=wq, wk=wk, wv=wv, wo=wo)


def weights_checksum(weights: ModelWeights) -> str:
    """sha256 over the raw float64 bytes in fill order (embed, wq, wk, wv, wo)."""
    h = hashlib.sha256()
    for arr in (weights.embed, weights.wq, weights.wk, weights.wv, weights.wo):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def block_input(weights: ModelWeights, prompt: str, i: int, perturb: np.ndarray | None = None) -> np.ndarray:
    """Initial hidden state for block i (1-based): per-scene base noise plus a
    per-block wiggle, embedded and lightly biased toward the prompt vector."""
    cfg = weights.config
    if i < 1:
        raise ConfigError(f"block index must be >= 1, got {i}")
    pkey = _prompt_key(prompt)
    scene = (i - 1) // cfg.scene_period
    n = cfg.f * cfg.s
    base = _rng(cfg.seed, _SCENE_STREAM, pkey, scene).standard_normal((n, cfg.d_model))
    wiggle = _rng(cfg.seed, _WIGGLE_STREAM, i).standard_normal((n, cfg.d_model))
    x = base + cfg.scene_jitter * wiggle
    hidden = x @ weights.embed + _PROMPT_STRENGTH * weights.prompt_embedding(prompt)
    if perturb is not None:
        hidden = hidden + perturb
    return hidden


def measurement_perturbation(config: ModelConfig, i: int, r: int) -> np.ndarray:
    """Seeded input perturbation used to emulate repeated per-block statistics."""
    n = config.f * config.s
    return _PERTURB_SCALE * _rng(config.seed, _PERTURB_STREAM, i, r).standard_normal((n, config.d_model))
