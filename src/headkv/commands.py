"""The four experiment commands behind the CLI: profile, generate, budget,
stability. Each takes a loaded ExperimentConfig, writes CSV/JSON artifacts
into the output directory, and returns the paths it wrote. All outputs are
deterministic given the config; only wall_time_ms and commit_ms vary run to run.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .cache import CacheBudget, budget_table
from .config import ExperimentConfig
from .errors import ConfigError, open_output
from .model import init_model
from .profiling import ProfileReport, classify_heads, core_stability_ratio, profile_rollout
from .reference import ReferenceGenerator, token_cosine_fidelity
from .roles import HeadRole, HeadRoleMap, role_map_from_lists
from .rollout import HeadWiseStrategy, RolloutEngine, WindowStrategy


def _out_dir(cfg: ExperimentConfig, out: str | None) -> Path:
    path = Path(out) if out else Path(cfg.output_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:     # a file by that name, or a parent that is one
        raise ConfigError(f"output directory {path} cannot be created: {exc}") from exc
    return path


@contextmanager
def _csv(path: Path, header: list[str]) -> Iterator:
    """A csv writer on path with its header row written."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield writer


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def build_strategy(cfg: ExperimentConfig, weights):
    spec = cfg.strategy
    if spec.type != "head_wise":
        return WindowStrategy(cfg.model, window=None if spec.type == "unbounded" else spec.W,
                              n_sink=spec.n_sink if spec.type == "sink_window" else 0)
    if cfg.head_role_map is None:
        raise ConfigError("strategy head_wise requires a head_role_map path")
    role_map = HeadRoleMap.load(cfg.head_role_map)
    return HeadWiseStrategy(cfg.model, weights, role_map, cfg.hyper)


def _profile(cfg: ExperimentConfig, weights, prompts: list[str], blocks: list[int],
             offset: int = 0) -> tuple[ProfileReport, HeadRoleMap]:
    """profile_rollout under cfg.profiling from perturbation stream offset,
    and the role map classify_heads draws from it at cfg's thresholds."""
    spec = cfg.profiling
    report = profile_rollout(weights, cfg.model, cfg.rope, sampled_blocks=blocks,
                             repeats=spec.repeats, prompts=prompts, window=spec.window,
                             n_sink=spec.n_sink, perturb_offset=offset)
    return report, classify_heads(report, cfg.alpha_anchor, cfg.tau_local)


def cmd_profile(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Profile head roles: writes role_map.json and head_stats.csv."""
    report, role_map = _profile(cfg, init_model(cfg.model), [text for text, _ in cfg.prompt_schedule],
                                list(cfg.profiling.sampled_blocks))
    out_path = _out_dir(cfg, out)

    map_path = out_path / "role_map.json"
    role_map.save(map_path)

    stats_path = out_path / "head_stats.csv"
    rows = []
    for l in range(cfg.model.L):
        for h in range(cfg.model.H):
            p = report.proportions(l, h)
            rows.append([l, h, _fmt(p.p_sink), _fmt(p.p_middle), _fmt(p.p_current),
                         role_map.role(l, h).value])
    with _csv(stats_path, ["layer", "head", "p_sink", "p_middle", "p_current", "role"]) as writer:
        writer.writerows(rows)
    return {"role_map": map_path, "head_stats": stats_path}


def cmd_generate(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Run one rollout under the configured strategy: writes metrics.csv,
    admissions.csv, and final_state.json. Rows are written as blocks finish;
    with the oracle on, the recompute oracle steps in lock-step."""
    weights = init_model(cfg.model)
    strategy = build_strategy(cfg, weights)
    engine = RolloutEngine(weights, cfg.model, cfg.rope, strategy)
    reference = ReferenceGenerator(weights, cfg.model, cfg.rope) if cfg.oracle_enabled() else None
    # the schedule is checked before any file is written
    blocks = engine.run(cfg.n_blocks, cfg.prompt_schedule)
    out_path = _out_dir(cfg, out)

    metrics_path = out_path / "metrics.csv"
    admissions_path = out_path / "admissions.csv"
    state_path = out_path / "final_state.json"
    # every output is opened before the first block, so one that cannot be
    # written fails the run before it starts
    with (_csv(metrics_path, ["block_index", "fidelity", "stored_scalar_count", "frame_slots_live",
                              "wall_time_ms", "commit_ms", "active_prompt"]) as metrics,
          _csv(admissions_path, ["block_index", "delta", "admitted", "compressed"]) as admissions,
          open_output(state_path) as state_file):
        for block, decisions, row in blocks:
            fidelity = ""
            if reference is not None:
                ref = reference.step(block.index, row.active_prompt)
                fidelity = _fmt(token_cosine_fidelity(block.frames, ref.frames))
            metrics.writerow([block.index, fidelity, block.stored_scalars, block.frame_slots,
                              f"{row.wall_time_ms:.3f}", f"{row.commit_ms:.3f}", row.active_prompt])
            admissions.writerows([d.block_index, _fmt(d.delta), str(d.admitted).lower(),
                                  str(d.compressed).lower()] for d in decisions)
        state = {
            "strategy": strategy.name,
            "n_blocks": cfg.n_blocks,
            "frame_slots_live_last": block.frame_slots,
            "stored_scalar_count_last": block.stored_scalars,
            **strategy.state(),
        }
        state_file.write(json.dumps(state, indent=2) + "\n")
    return {"metrics": metrics_path, "admissions": admissions_path, "final_state": state_path}


def cmd_budget(cfg: ExperimentConfig, out: str | None = None,
               counts: tuple[int, int, int] | None = None) -> dict[str, Path]:
    """Frame-slot budget table: head-wise scheme vs the uniform baselines.

    Role counts come from the configured role map, or from explicit
    (local, anchor, memory) counts."""
    if counts is None:
        if cfg.head_role_map is None:
            raise ConfigError("budget needs a head_role_map path or explicit role counts")
        by_role = HeadRoleMap.load(cfg.head_role_map).counts()
        counts = (by_role[HeadRole.LOCAL], by_role[HeadRole.ANCHOR], by_role[HeadRole.MEMORY])
    elif len(counts) != 3 or min(counts) < 0 or sum(counts) < 1:
        raise ConfigError(
            f"role counts must be three non-negative local,anchor,memory counts with a positive total, got {counts}"
        )
    budget = CacheBudget(*counts, f=cfg.model.f, b_epi=cfg.hyper.b_epi, b_fast=cfg.hyper.b_fast)
    rows = budget_table(budget)
    path = _out_dir(cfg, out) / "budget.csv"
    with _csv(path, ["method", "cache_per_head", "frame_slots", "relative_budget"]) as writer:
        writer.writerows([r["method"], r["cache_per_head"], r["frame_slots"], f"{r['relative_budget']:.1f}"]
                         for r in rows)
    return {"budget": path}


def _stability_runs(cfg: ExperimentConfig) -> list[HeadRoleMap]:
    spec = cfg.stability
    weights = init_model(cfg.model)
    base_prompts = [text for text, _ in cfg.prompt_schedule]
    maps: list[HeadRoleMap] = []

    if spec.axis == "inject_disjoint_anchor":
        # synthetic mode: M maps whose anchor sets are forced disjoint
        total = cfg.model.L * cfg.model.H
        n_anchor = max(1, total // (2 * spec.runs))
        all_heads = cfg.model.heads
        for r in range(spec.runs):
            anchors = all_heads[r * n_anchor:(r + 1) * n_anchor]
            maps.append(role_map_from_lists(cfg.model.L, cfg.model.H, anchor=anchors, local=[],
                                            alpha_anchor=cfg.alpha_anchor, tau_local=cfg.tau_local))
        return maps

    for r in range(spec.runs):
        prompts = base_prompts
        blocks = list(cfg.profiling.sampled_blocks)
        offset = 0
        if spec.axis == "prompts":
            pool = list(spec.prompt_pool) or [base_prompts[0]] + [
                f"{base_prompts[0]} / variation {k}" for k in range(1, spec.runs)
            ]
            if len(pool) < spec.runs:
                raise ConfigError(f"prompt pool has {len(pool)} entries for {spec.runs} runs")
            prompts = [pool[r]]
        elif spec.axis == "blocks":
            blocks = [b + r for b in blocks]
        else:  # repeats: disjoint measurement perturbation streams per run
            offset = r * cfg.profiling.repeats
        maps.append(_profile(cfg, weights, prompts, blocks, offset)[1])
    return maps


def cmd_stability(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Classification stability across M profiling runs varied along one axis:
    writes stability.csv plus the per-run role maps."""
    maps = _stability_runs(cfg)
    report = core_stability_ratio(maps)
    out_path = _out_dir(cfg, out)

    paths: dict[str, Path] = {}
    for r, m in enumerate(maps):
        p = out_path / f"role_map_run{r}.json"
        m.save(p)
        paths[f"role_map_run{r}"] = p

    path = out_path / "stability.csv"
    with _csv(path, ["role", "s_c"]) as writer:
        writer.writerows([["anchor", _fmt(report.s_anchor)], ["local", _fmt(report.s_local)],
                          ["memory", _fmt(report.s_memory)], ["average", _fmt(report.s_avg)]])
    paths["stability"] = path
    return paths
