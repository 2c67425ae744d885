"""Digests of what a checkout's rollouts and profiling produce, to check that
a change leaves every output byte-identical.

    python tools/output_digests.py CHECKOUT [--grids toy,scenic,mid]

imports headkv from CHECKOUT/src and prints one line per (grid, strategy): a
sha256 over every block's output latents, frame_slots, stored_scalars and
admission decisions, in block order. Head-wise runs on a role map whose
anchor and local heads lead the head order, and once more on a map that puts
all three roles in every layer. Three more lines per grid digest the
`profile_rollout` means; what `headkv generate` writes for head-wise with
the oracle on (metrics.csv without its two timing columns, admissions.csv and
final_state.json); and every file that `headkv profile`, `budget` (on the
profiled role map) and `stability` write for the default config on that grid.
Two checkouts produce the same lines exactly when those outputs agree byte
for byte:

    diff <(python tools/output_digests.py OLD) <(python tools/output_digests.py NEW)
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

GRIDS = {
    "toy": (dict(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4), 24),
    "scenic": (dict(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4,
                    scene_period=9, scene_jitter=0.02), 24),
    "mid": (dict(L=4, H=8, d=32, s=64, f=3, grid_h=8, grid_w=8), 12),
}

# name -> strategy built from (headkv, model config, weights, role map)
STRATEGIES = {
    "unbounded": lambda hk, cfg, w, rm: hk.WindowStrategy(cfg, None),
    "uniform_window(W=7)": lambda hk, cfg, w, rm: hk.WindowStrategy(cfg, 7),
    "uniform_window(W=f)": lambda hk, cfg, w, rm: hk.WindowStrategy(cfg, cfg.f),
    "sink_window(W=8, n_sink=1)": lambda hk, cfg, w, rm: hk.WindowStrategy(cfg, 8, n_sink=1),
    "head_wise": lambda hk, cfg, w, rm: hk.HeadWiseStrategy(cfg, w, rm),
    "head_wise(update_interval=1)": lambda hk, cfg, w, rm: hk.HeadWiseStrategy(
        cfg, w, rm, hk.HeadWiseHyper(update_interval=1)),
    "head_wise(mixed roles)": lambda hk, cfg, w, rm: hk.HeadWiseStrategy(cfg, w, mixed_role_map(hk, cfg)),
}
PROMPTS = ("a red kite over the dunes", "a lighthouse at night")


def mixed_role_map(hk, cfg):
    """Head (l, h) takes role (l + h) % 3: every layer holds all three roles,
    and no role's heads are contiguous, so a per-role split of the heads
    cannot pass by taking a slice of the head order."""
    heads = cfg.heads
    return hk.roles.role_map_from_lists(cfg.L, cfg.H, anchor=[lh for lh in heads if sum(lh) % 3 == 0],
                                        local=[lh for lh in heads if sum(lh) % 3 == 1])


def import_headkv(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import headkv
    import headkv.commands
    import headkv.config

    if Path(headkv.__file__).resolve().parent != (checkout / "src" / "headkv").resolve():
        raise SystemExit(f"output_digests: headkv imported from {headkv.__file__}, not {checkout}")
    return headkv


def rollout_digest(hk, cfg, weights, rope, strategy, n_blocks: int) -> str:
    """Step and commit n_blocks blocks, switching prompt halfway."""
    engine = hk.RolloutEngine(weights, cfg, rope, strategy)
    digest = hashlib.sha256()
    for i in range(1, n_blocks + 1):
        prompt = PROMPTS[2 * i > n_blocks]
        block = engine.step(i, prompt)
        decisions = engine.commit(block, prompt)
        for frame in block.frames:
            digest.update(np.ascontiguousarray(frame).tobytes())
        digest.update(f"{block.frame_slots} {block.stored_scalars};".encode())
        for d in decisions:
            digest.update(f"{d.block_index} {d.delta!r} {d.admitted} {d.compressed};".encode())
    return digest.hexdigest()


def generate_digest(hk, dims: dict, role_map, n_blocks: int) -> str:
    """sha256 over cmd_generate's deterministic outputs: head-wise, oracle on,
    the prompt switching halfway as in rollout_digest."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        map_path = Path(tmp) / "role_map.json"
        role_map.save(map_path)
        cfg = hk.config.config_from_dict({
            "model": dict(dims, seed=3), "strategy": {"type": "head_wise"},
            "head_role_map": str(map_path), "n_blocks": n_blocks,
            "prompt_schedule": [[PROMPTS[0], 1], [PROMPTS[1], n_blocks // 2 + 1]],
        })
        cfg.with_oracle = True
        paths = hk.commands.cmd_generate(cfg, str(Path(tmp) / "out"))
        with paths["metrics"].open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                del row["wall_time_ms"], row["commit_ms"]
                digest.update(repr(row).encode())
        digest.update(paths["admissions"].read_bytes())
        digest.update(paths["final_state"].read_bytes())
    return digest.hexdigest()


def commands_digest(hk, dims: dict) -> str:
    """sha256 over every file cmd_profile, cmd_budget and cmd_stability write
    for the default config on the grid, budget counting the profiled map."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = hk.config.config_from_dict({"model": dict(dims, seed=3), "output_dir": tmp})
        paths = hk.commands.cmd_profile(cfg)
        cfg.head_role_map = str(paths["role_map"])
        paths.update(hk.commands.cmd_budget(cfg))
        paths.update(hk.commands.cmd_stability(cfg))
        for name, path in paths.items():
            digest.update(name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def grid_digests(hk, grid: str) -> list[str]:
    dims, n_blocks = GRIDS[grid]
    cfg = hk.ModelConfig(seed=3, **dims)
    weights = hk.init_model(cfg)
    rope = hk.RopeParams.default_for(cfg.d)
    heads = cfg.heads
    n_anchor, n_local = round(0.25 * len(heads)), round(0.2 * len(heads))
    role_map = hk.roles.role_map_from_lists(cfg.L, cfg.H, anchor=heads[:n_anchor],
                                            local=heads[n_anchor:n_anchor + n_local])
    lines = [f"{grid} {name} "
             + rollout_digest(hk, cfg, weights, rope, make(hk, cfg, weights, role_map), n_blocks)
             for name, make in STRATEGIES.items()]
    report = hk.profile_rollout(weights, cfg, rope, sampled_blocks=[3, 8], repeats=2,
                                prompts=list(PROMPTS))
    lines.append(f"{grid} profile_rollout {hashlib.sha256(report.means.tobytes()).hexdigest()}")
    lines.append(f"{grid} cmd_generate(head_wise, oracle) {generate_digest(hk, dims, role_map, n_blocks)}")
    lines.append(f"{grid} commands(profile, budget, stability) {commands_digest(hk, dims)}")
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository root whose src/ is digested")
    parser.add_argument("--grids", default=",".join(GRIDS),
                        help=f"comma-separated subset of {','.join(GRIDS)}")
    args = parser.parse_args(argv)
    grids = args.grids.split(",")
    unknown = set(grids) - set(GRIDS)
    if unknown:
        parser.error(f"unknown grids: {', '.join(sorted(unknown))}")
    hk = import_headkv(args.checkout)
    for grid in grids:
        for line in grid_digests(hk, grid):
            print(line, flush=True)


if __name__ == "__main__":
    main()
