"""The four experiment commands behind the CLI: profile, generate, budget,
stability. Each takes a loaded ExperimentConfig, writes CSV/JSON artifacts
into the output directory, and returns the paths it wrote. All outputs are
deterministic given the config; only wall_time_ms and commit_ms vary run to run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .cache import budget_table, frame_slots
from .config import ExperimentConfig
from .errors import ConfigError
from .model import init_model
from .profiling import classify_heads, core_stability_ratio, profile_rollout
from .reference import ReferenceGenerator, token_cosine_fidelity
from .roles import HeadRoleMap, role_map_from_lists
from .rollout import (
    HeadWiseStrategy,
    RolloutEngine,
    UnboundedStrategy,
    WindowStrategy,
)


def _out_dir(cfg: ExperimentConfig, out: str | None) -> Path:
    path = Path(out) if out else Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def build_strategy(cfg: ExperimentConfig, weights):
    spec = cfg.strategy
    if spec.type == "unbounded":
        return UnboundedStrategy(cfg.model)
    if spec.type == "uniform_window":
        return WindowStrategy(cfg.model, window=spec.W, n_sink=0)
    if spec.type == "sink_window":
        return WindowStrategy(cfg.model, window=spec.W, n_sink=spec.n_sink)
    if cfg.head_role_map is None:
        raise ConfigError("strategy head_wise requires a head_role_map path")
    role_map = HeadRoleMap.load(cfg.head_role_map)
    return HeadWiseStrategy(cfg.model, weights, role_map, cfg.hyper)


def cmd_profile(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Profile head roles: writes role_map.json and head_stats.csv."""
    out_path = _out_dir(cfg, out)
    weights = init_model(cfg.model)
    prompts = [text for text, _ in cfg.prompt_schedule]
    report = profile_rollout(
        weights, cfg.model, cfg.rope,
        sampled_blocks=list(cfg.profiling.sampled_blocks),
        repeats=cfg.profiling.repeats, prompts=prompts,
        window=cfg.profiling.window, n_sink=cfg.profiling.n_sink,
        perturb_scale=cfg.profiling.perturb_scale,
    )
    provenance = (f"seed={cfg.model.seed} blocks={list(cfg.profiling.sampled_blocks)} "
                  f"repeats={cfg.profiling.repeats} prompts={len(prompts)}")
    role_map = classify_heads(report, cfg.alpha_anchor, cfg.tau_local, provenance=provenance)

    map_path = out_path / "role_map.json"
    role_map.save(map_path)

    stats_path = out_path / "head_stats.csv"
    rows = []
    for l in range(cfg.model.L):
        for h in range(cfg.model.H):
            p = report.proportions(l, h)
            rows.append([l, h, _fmt(p.p_sink), _fmt(p.p_middle), _fmt(p.p_current),
                         role_map.role(l, h).value])
    _write_csv(stats_path, ["layer", "head", "p_sink", "p_middle", "p_current", "role"], rows)
    return {"role_map": map_path, "head_stats": stats_path}


def cmd_generate(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Run one rollout under the configured strategy: writes metrics.csv,
    admissions.csv, and final_state.json."""
    out_path = _out_dir(cfg, out)
    weights = init_model(cfg.model)
    strategy = build_strategy(cfg, weights)
    engine = RolloutEngine(weights, cfg.model, cfg.rope, strategy)
    record = engine.run(cfg.n_blocks, cfg.prompt_schedule)

    fidelities: list[float | None] = [None] * cfg.n_blocks
    if cfg.oracle_enabled():
        reference = ReferenceGenerator(weights, cfg.model, cfg.rope)
        ref_blocks = reference.run(cfg.n_blocks, cfg.prompt_schedule)
        for idx, (blk, ref) in enumerate(zip(record.blocks, ref_blocks)):
            fidelities[idx] = token_cosine_fidelity(blk.frames, ref.frames)

    metrics_path = out_path / "metrics.csv"
    rows = []
    for row, fid in zip(record.metrics, fidelities):
        rows.append([
            row.block_index,
            _fmt(fid) if fid is not None else "",
            row.stored_scalar_count,
            row.frame_slots_live,
            f"{row.wall_time_ms:.3f}",
            f"{row.commit_ms:.3f}",
            row.active_prompt,
        ])
    _write_csv(metrics_path,
               ["block_index", "fidelity", "stored_scalar_count", "frame_slots_live",
                "wall_time_ms", "commit_ms", "active_prompt"], rows)

    admissions_path = out_path / "admissions.csv"
    _write_csv(admissions_path, ["block_index", "delta", "admitted", "compressed"],
               [[d.block_index, _fmt(d.delta), str(d.admitted).lower(), str(d.compressed).lower()]
                for d in record.admissions])

    state_path = out_path / "final_state.json"
    state = {
        "strategy": record.strategy,
        "n_blocks": cfg.n_blocks,
        "frame_slots_live_last": record.metrics[-1].frame_slots_live,
        "stored_scalar_count_last": record.metrics[-1].stored_scalar_count,
    }
    if isinstance(strategy, HeadWiseStrategy):
        state["episodic_entries"] = [
            {"frame_index": e.frame_index, "is_summary": e.is_summary}
            for e in strategy.episodic.entries
        ]
    state_path.write_text(json.dumps(state, indent=2) + "\n", encoding="utf-8")
    return {"metrics": metrics_path, "admissions": admissions_path, "final_state": state_path}


def cmd_budget(cfg: ExperimentConfig, out: str | None = None,
               counts: tuple[int, int, int] | None = None) -> dict[str, Path]:
    """Frame-slot budget table: head-wise scheme vs the uniform baselines.

    Role counts come from the configured role map, or from explicit
    (local, anchor, memory) counts."""
    out_path = _out_dir(cfg, out)
    if counts is not None:
        n_local, n_anchor, n_memory = counts
        layers, heads = 1, n_local + n_anchor + n_memory
        all_heads = [(0, h) for h in range(heads)]
        role_map = role_map_from_lists(
            layers, heads,
            anchor=all_heads[n_local:n_local + n_anchor],
            local=all_heads[:n_local],
        )
    elif cfg.head_role_map is not None:
        role_map = HeadRoleMap.load(cfg.head_role_map)
    else:
        raise ConfigError("budget needs a head_role_map path or explicit role counts")

    budget = frame_slots(role_map, cfg.hyper.b_epi, cfg.hyper.b_fast, cfg.model.f)
    rows = budget_table(budget)
    path = out_path / "budget.csv"
    _write_csv(path, ["method", "cache_per_head", "frame_slots", "relative_budget"],
               [[r["method"], r["cache_per_head"], r["frame_slots"], f"{r['relative_budget']:.1f}"]
                for r in rows])
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
                                            alpha_anchor=cfg.alpha_anchor, tau_local=cfg.tau_local,
                                            provenance=f"inject_disjoint_anchor run {r}"))
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
            sets = list(spec.block_sets) or [tuple(b + r for b in blocks) for r in range(spec.runs)]
            if len(sets) < spec.runs:
                raise ConfigError(f"block_sets has {len(sets)} entries for {spec.runs} runs")
            blocks = list(sets[r])
        else:  # repeats: disjoint measurement perturbation streams per run
            offset = r * cfg.profiling.repeats
        report = profile_rollout(
            weights, cfg.model, cfg.rope, sampled_blocks=blocks,
            repeats=cfg.profiling.repeats, prompts=prompts,
            window=cfg.profiling.window, n_sink=cfg.profiling.n_sink,
            perturb_scale=cfg.profiling.perturb_scale, perturb_offset=offset,
        )
        maps.append(classify_heads(report, cfg.alpha_anchor, cfg.tau_local,
                                   provenance=f"{spec.axis} run {r}"))
    return maps


def cmd_stability(cfg: ExperimentConfig, out: str | None = None) -> dict[str, Path]:
    """Classification stability across M profiling runs varied along one axis:
    writes stability.csv plus the per-run role maps."""
    out_path = _out_dir(cfg, out)
    maps = _stability_runs(cfg)
    report = core_stability_ratio(maps)

    paths: dict[str, Path] = {}
    for r, m in enumerate(maps):
        p = out_path / f"role_map_run{r}.json"
        m.save(p)
        paths[f"role_map_run{r}"] = p

    path = out_path / "stability.csv"
    _write_csv(path, ["role", "s_c"], [
        ["anchor", _fmt(report.s_anchor)],
        ["local", _fmt(report.s_local)],
        ["memory", _fmt(report.s_memory)],
        ["average", _fmt(report.s_avg)],
    ])
    paths["stability"] = path
    return paths
