"""Experiment configuration: JSON schema, defaults, and validation.

Top-level keys: model, strategy, head_role_map, hyperparameters,
prompt_schedule, n_blocks, output_dir, profiling, stability. Each object
section is the schema of one dataclass: model is ModelConfig, strategy
StrategySpec, hyperparameters HeadWiseHyper (with B_epi / B_fast for b_epi /
b_fast) plus alpha_anchor, tau_local and rope (RopeParams), profiling
ProfilingSpec, stability StabilitySpec. A section's keys are its fields, an
absent key keeps the field default, and each value must have the field's
type. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError, ShapeError, parse_json, read_input, require_int as _int, require_number as _float
from .model import ModelConfig
from .rollout import HeadWiseHyper, check_schedule
from .tensor_ops import RopeParams

_STRATEGIES = ("unbounded", "uniform_window", "sink_window", "head_wise")


@dataclass(frozen=True)
class StrategySpec:
    type: str = "unbounded"
    W: int = 8
    n_sink: int = 1

    def __post_init__(self) -> None:
        if self.type not in _STRATEGIES:
            raise ConfigError(f"strategy.type must be one of {_STRATEGIES}, got {self.type!r}")
        if self.W < 1 or self.n_sink < 0:
            raise ConfigError(f"strategy needs W >= 1 and n_sink >= 0, got W={self.W}, n_sink={self.n_sink}")


@dataclass(frozen=True)
class ProfilingSpec:
    sampled_blocks: tuple[int, ...] = (3, 8, 13)
    repeats: int = 1
    window: int = 8
    n_sink: int = 1

    def __post_init__(self) -> None:
        # window >= model.f is checked where the window is built: a generate
        # config whose f exceeds the default window is still valid
        if self.window < 1 or self.n_sink < 0 or self.repeats < 1:
            raise ConfigError(f"profiling needs window >= 1, n_sink >= 0 and repeats >= 1, got "
                              f"{self.window}, {self.n_sink}, {self.repeats}")
        if not self.sampled_blocks or min(self.sampled_blocks) < 3:
            raise ConfigError(f"profiling needs at least one sampled block, each >= 3, got {list(self.sampled_blocks)}")


@dataclass(frozen=True)
class StabilitySpec:
    runs: int = 4
    axis: str = "prompts"          # prompts | blocks | repeats | inject_disjoint_anchor
    prompt_pool: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.runs < 2:
            raise ConfigError("stability.runs must be >= 2")
        if self.axis not in ("prompts", "blocks", "repeats", "inject_disjoint_anchor"):
            raise ConfigError(f"unknown stability.axis {self.axis!r}")


ORACLE_AUTO_LIMIT = 64                   # longest run that gets the recompute oracle by default


@dataclass
class ExperimentConfig:
    model: ModelConfig
    strategy: StrategySpec
    hyper: HeadWiseHyper
    rope: RopeParams
    alpha_anchor: float
    tau_local: float
    prompt_schedule: list[tuple[str, int]]
    n_blocks: int
    output_dir: str
    head_role_map: Optional[str] = None
    profiling: ProfilingSpec = field(default_factory=ProfilingSpec)
    stability: StabilitySpec = field(default_factory=StabilitySpec)
    with_oracle: Optional[bool] = None   # None: on iff n_blocks <= ORACLE_AUTO_LIMIT

    def oracle_enabled(self) -> bool:
        if self.with_oracle is not None:
            return self.with_oracle
        return self.n_blocks <= ORACLE_AUTO_LIMIT


_TOP_KEYS = ("model", "strategy", "head_role_map", "hyperparameters", "prompt_schedule",
             "n_blocks", "output_dir", "profiling", "stability")
# keys that only some strategy types or stability axes read: section ->
# (the field that chooses, {key: the choices that read it})
_READ_ONLY_BY = {
    "strategy": ("type", {"W": ("uniform_window", "sink_window"), "n_sink": ("sink_window",)}),
    "stability": ("axis", {"prompt_pool": ("prompts",)}),
}
_TOY_MODEL = {"L": 4, "H": 6, "d": 16, "s": 16, "f": 3, "grid_h": 4, "grid_w": 4}
_JSON_KEYS = {"b_epi": "B_epi", "b_fast": "B_fast"}    # field name -> JSON key, where they differ


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _typed(value, tp, name: str):
    """value checked against a field type: int, float, str or tuple[T, ...]."""
    if tp is int:
        return _int(value, name)
    if tp is float:
        return _float(value, name)
    if tp is str:
        return _text(value, name)
    item = get_args(tp)[0]
    return tuple(_typed(v, item, name) for v in _list(value, name))


def _section(cls, raw, name: str, **given):
    """cls built from the JSON object raw, whose keys are cls's field names.
    An absent key keeps its value in given, else the field default. A key
    that the section's chosen type or axis never reads is refused."""
    hints = get_type_hints(cls)
    by_key = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(_object(raw, name)) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in raw.items():
        given[by_key[key]] = _typed(value, hints[by_key[key]], f"{name}.{key}")
    try:
        spec = cls(**given)
    except (ShapeError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    chooser, read_by = _READ_ONLY_BY.get(name, ("", {}))
    for key, choices in read_by.items():
        if key in raw and getattr(spec, chooser) not in choices:
            raise ConfigError(f"{name}.{key} is read only when {name}.{chooser} is "
                              f"{' or '.join(map(repr, choices))}, not {getattr(spec, chooser)!r}")
    return spec


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(_object(raw, "top-level")) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    model = _section(ModelConfig, raw.get("model", {}), "model", **_TOY_MODEL)

    hp = dict(_object(raw.get("hyperparameters", {}), "hyperparameters"))
    alpha_anchor = _float(hp.pop("alpha_anchor", 0.25), "hyperparameters.alpha_anchor")
    tau_local = _float(hp.pop("tau_local", 0.20), "hyperparameters.tau_local")
    rope = _section(RopeParams, hp.pop("rope", {}), "hyperparameters.rope",
                    d_t=model.d // 2, d_h=model.d // 4, d_w=model.d // 4)
    if rope.d != model.d:
        raise ConfigError(f"rope split totals {rope.d} channels but model.d = {model.d}")
    hyper = _section(HeadWiseHyper, hp, "hyperparameters")

    schedule_raw = raw.get("prompt_schedule", [["a quiet harbor at dawn", 1]])
    if not isinstance(schedule_raw, list) or not schedule_raw:
        raise ConfigError("prompt_schedule must be a non-empty list of [prompt, start_block]")
    schedule = []
    for entry in schedule_raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"prompt_schedule entries must be [prompt, start_block], got {entry!r}")
        schedule.append((_text(entry[0], "prompt_schedule prompt"),
                         _int(entry[1], "prompt_schedule start block")))
    check_schedule(schedule)

    n_blocks = _int(raw.get("n_blocks", 8), "n_blocks")
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")
    head_role_map = raw.get("head_role_map")

    return ExperimentConfig(
        model=model, strategy=_section(StrategySpec, raw.get("strategy", {}), "strategy"),
        hyper=hyper, rope=rope, alpha_anchor=alpha_anchor, tau_local=tau_local,
        prompt_schedule=schedule, n_blocks=n_blocks,
        output_dir=_text(raw.get("output_dir", "out"), "output_dir"),
        head_role_map=None if head_role_map is None else _text(head_role_map, "head_role_map"),
        profiling=_section(ProfilingSpec, raw.get("profiling", {}), "profiling"),
        stability=_section(StabilitySpec, raw.get("stability", {}), "stability"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    raw = parse_json(read_input(path, "config file"), "config")
    # head_role_map and output_dir are both resolved against the working
    # directory, like any CLI path argument
    return config_from_dict(raw)
