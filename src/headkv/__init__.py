"""Head-heterogeneous KV-cache management on a deterministic toy transformer:
head-role profiling, per-role cache policies with a hierarchical episodic
memory, per-head temporal re-encoding, and variable-length attention packing,
all verified against brute-force oracles.
"""

from .assembly import (
    AssembledSequence,
    EncodedSequence,
    PackedBuffer,
    assemble,
    pack,
    packed_attention,
    reencode_temporal,
)
from .cache import (
    AnchorCache,
    CacheBudget,
    FrameKV,
    LocalCache,
    MemoryCache,
    frame_slots,
    roll_after_block,
)
from .episodic import AdmissionDecision, EpisodicEntry, EpisodicMemory
from .errors import ConfigError, IntegrityError, SequencingError, ShapeError
from .model import ModelConfig, ModelWeights, init_model, weights_checksum
from .profiling import (
    BucketProportions,
    ProfileReport,
    StabilityReport,
    bucket_proportions,
    classify_heads,
    core_stability_ratio,
    profile_rollout,
)
from .roles import HeadRole, HeadRoleMap
from .rollout import (
    HeadWiseHyper,
    HeadWiseStrategy,
    LatentBlock,
    RolloutEngine,
    UnboundedStrategy,
    WindowStrategy,
    generate_rollout,
)
from .tensor_ops import RopeParams, apply_rope, attention, softmax_rows

__all__ = [
    "AdmissionDecision",
    "AnchorCache",
    "AssembledSequence",
    "BucketProportions",
    "CacheBudget",
    "ConfigError",
    "EncodedSequence",
    "EpisodicEntry",
    "EpisodicMemory",
    "FrameKV",
    "HeadRole",
    "HeadRoleMap",
    "HeadWiseHyper",
    "HeadWiseStrategy",
    "IntegrityError",
    "LatentBlock",
    "LocalCache",
    "MemoryCache",
    "ModelConfig",
    "ModelWeights",
    "PackedBuffer",
    "ProfileReport",
    "RolloutEngine",
    "RopeParams",
    "SequencingError",
    "ShapeError",
    "StabilityReport",
    "UnboundedStrategy",
    "WindowStrategy",
    "apply_rope",
    "assemble",
    "attention",
    "bucket_proportions",
    "classify_heads",
    "core_stability_ratio",
    "frame_slots",
    "generate_rollout",
    "init_model",
    "pack",
    "packed_attention",
    "profile_rollout",
    "reencode_temporal",
    "roll_after_block",
    "softmax_rows",
    "weights_checksum",
]
