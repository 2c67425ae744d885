"""Experiment configuration: JSON schema, defaults, and validation.

Top-level keys: model, strategy, head_role_map, hyperparameters,
prompt_schedule, n_blocks, output_dir, profiling, stability. Model keys use
the dimension names L/H/d/s/f/grid_h/grid_w/seed; strategy is one of
unbounded | uniform_window | sink_window | head_wise with W / n_sink where
applicable. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError, require_int as _int, require_number as _float
from .model import ModelConfig
from .rollout import HeadWiseHyper
from .tensor_ops import RopeParams

_STRATEGIES = ("unbounded", "uniform_window", "sink_window", "head_wise")


@dataclass(frozen=True)
class StrategySpec:
    type: str
    W: int = 8
    n_sink: int = 1

    def __post_init__(self) -> None:
        if self.type not in _STRATEGIES:
            raise ConfigError(f"strategy.type must be one of {_STRATEGIES}, got {self.type!r}")


@dataclass(frozen=True)
class ProfilingSpec:
    sampled_blocks: tuple[int, ...] = (3, 8, 13)
    repeats: int = 1
    window: int = 8
    n_sink: int = 1
    perturb_scale: float = 0.05


@dataclass(frozen=True)
class StabilitySpec:
    runs: int = 4
    axis: str = "prompts"          # prompts | blocks | repeats | inject_disjoint_anchor
    prompt_pool: tuple[str, ...] = ()
    block_sets: tuple[tuple[int, ...], ...] = ()

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


_TOY_MODEL = {"L": 4, "H": 6, "d": 16, "s": 16, "f": 3, "grid_h": 4, "grid_w": 4, "seed": 0}


def _take(d: dict, allowed: dict[str, Any], section: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    out = dict(allowed)
    out.update(d)
    return out


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    top_defaults = {
        "model": {}, "strategy": {"type": "unbounded"}, "hyperparameters": {},
        "prompt_schedule": [["a quiet harbor at dawn", 1]], "n_blocks": 8,
        "output_dir": "out", "head_role_map": None, "profiling": {}, "stability": {},
    }
    raw = _take(raw, top_defaults, "top-level")

    m = _take(raw["model"], {**_TOY_MODEL, "scene_period": 1, "scene_jitter": 0.05,
                             "prompt_strength": 0.05}, "model")
    model = ModelConfig(**{
        k: _float(v, f"model.{k}") if k in ("scene_jitter", "prompt_strength") else _int(v, f"model.{k}")
        for k, v in m.items()
    })

    hp_defaults = {
        "alpha_anchor": 0.25, "tau_local": 0.20, "B_epi": 5, "B_fast": 3,
        "tau_novel": 0.95, "update_interval": 3, "candidate_mode": "latest",
        "novelty_metric": "key_cosine", "rope": {},
    }
    hp = _take(raw["hyperparameters"], hp_defaults, "hyperparameters")
    rope_defaults = {"d_t": model.d // 2, "d_h": model.d // 4, "d_w": model.d // 4,
                     "base": 10000.0}
    rp = _take(hp["rope"], rope_defaults, "rope")
    rope = RopeParams(d_t=_int(rp["d_t"], "rope.d_t"), d_h=_int(rp["d_h"], "rope.d_h"),
                      d_w=_int(rp["d_w"], "rope.d_w"), base=_float(rp["base"], "rope.base"))
    if rope.d != model.d:
        raise ConfigError(f"rope split totals {rope.d} channels but model.d = {model.d}")
    hyper = HeadWiseHyper(
        b_epi=_int(hp["B_epi"], "B_epi"), b_fast=_int(hp["B_fast"], "B_fast"),
        tau_novel=_float(hp["tau_novel"], "tau_novel"),
        update_interval=_int(hp["update_interval"], "update_interval"),
        candidate_mode=hp["candidate_mode"],
        novelty_metric=hp["novelty_metric"],
    )

    st = _take(raw["strategy"], {"type": "unbounded", "W": 8, "n_sink": 1}, "strategy")
    strategy = StrategySpec(type=st["type"], W=_int(st["W"], "strategy.W"),
                            n_sink=_int(st["n_sink"], "strategy.n_sink"))

    schedule_raw = raw["prompt_schedule"]
    if not isinstance(schedule_raw, list) or not schedule_raw:
        raise ConfigError("prompt_schedule must be a non-empty list of [prompt, start_block]")
    schedule = []
    for entry in schedule_raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"prompt_schedule entries must be [prompt, start_block], got {entry!r}")
        schedule.append((_text(entry[0], "prompt_schedule prompt"),
                         _int(entry[1], "prompt_schedule start block")))

    pf = _take(raw["profiling"], {"sampled_blocks": [3, 8, 13], "repeats": 1,
                                  "window": 8, "n_sink": 1, "perturb_scale": 0.05},
               "profiling")
    profiling = ProfilingSpec(
        sampled_blocks=tuple(_int(b, "profiling.sampled_blocks")
                             for b in _list(pf["sampled_blocks"], "profiling.sampled_blocks")),
        repeats=_int(pf["repeats"], "profiling.repeats"), window=_int(pf["window"], "profiling.window"),
        n_sink=_int(pf["n_sink"], "profiling.n_sink"), perturb_scale=_float(pf["perturb_scale"], "profiling.perturb_scale"),
    )

    sb = _take(raw["stability"], {"runs": 4, "axis": "prompts", "prompt_pool": [],
                                  "block_sets": []}, "stability")
    stability = StabilitySpec(
        runs=_int(sb["runs"], "stability.runs"), axis=sb["axis"],
        prompt_pool=tuple(_text(p, "stability.prompt_pool")
                          for p in _list(sb["prompt_pool"], "stability.prompt_pool")),
        block_sets=tuple(tuple(_int(b, "stability.block_sets") for b in _list(bs, "stability.block_sets"))
                         for bs in _list(sb["block_sets"], "stability.block_sets")),
    )

    n_blocks = _int(raw["n_blocks"], "n_blocks")
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")

    return ExperimentConfig(
        model=model, strategy=strategy, hyper=hyper, rope=rope,
        alpha_anchor=_float(hp["alpha_anchor"], "alpha_anchor"),
        tau_local=_float(hp["tau_local"], "tau_local"),
        prompt_schedule=schedule, n_blocks=n_blocks,
        output_dir=_text(raw["output_dir"], "output_dir"),
        head_role_map=None if raw["head_role_map"] is None else _text(raw["head_role_map"], "head_role_map"),
        profiling=profiling, stability=stability,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    # head_role_map and output_dir are both resolved against the working
    # directory, like any CLI path argument
    return config_from_dict(raw)
