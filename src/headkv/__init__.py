"""Head-heterogeneous KV-cache management on a deterministic toy transformer:
head-role profiling, per-role cache policies with a hierarchical episodic
memory, per-head temporal re-encoding, and variable-length attention packing,
all verified against brute-force oracles.
"""

from .assembly import (
    EncodedSequence,
    PackedBuffer,
    assemble,
    pack,
    packed_attention,
    reencode_temporal,
)
from .cache import (
    CacheBudget,
    FrameKV,
    FrameWindow,
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
    WindowStrategy,
)
from .tensor_ops import (
    RopeParams,
    Rotation,
    apply_rope,
    frame_rotation,
    rope_rotation,
    softmax_rows,
)

__all__ = [
    "AdmissionDecision",
    "BucketProportions",
    "CacheBudget",
    "ConfigError",
    "EncodedSequence",
    "EpisodicEntry",
    "EpisodicMemory",
    "FrameKV",
    "FrameWindow",
    "HeadRole",
    "HeadRoleMap",
    "HeadWiseHyper",
    "HeadWiseStrategy",
    "IntegrityError",
    "LatentBlock",
    "ModelConfig",
    "ModelWeights",
    "PackedBuffer",
    "ProfileReport",
    "RolloutEngine",
    "RopeParams",
    "Rotation",
    "SequencingError",
    "ShapeError",
    "StabilityReport",
    "WindowStrategy",
    "apply_rope",
    "assemble",
    "bucket_proportions",
    "classify_heads",
    "core_stability_ratio",
    "frame_rotation",
    "frame_slots",
    "init_model",
    "pack",
    "packed_attention",
    "profile_rollout",
    "reencode_temporal",
    "roll_after_block",
    "rope_rotation",
    "softmax_rows",
    "weights_checksum",
]
