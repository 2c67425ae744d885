"""Acceptance gate: one test per criterion, each printing a pass line with its
runtime (visible under pytest -s; any failure raises before the line prints).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import csv
import hashlib
import time

import numpy as np
import pytest

from headkv.assembly import assemble, pack, packed_attention, reencode_temporal
from headkv.cache import FrameKV
from headkv.commands import cmd_budget, cmd_generate, cmd_profile, cmd_stability
from headkv.config import config_from_dict
from headkv.episodic import EpisodicMemory
from headkv.model import ModelConfig, init_model
from headkv.profiling import ProfileReport, classify_heads, core_stability_ratio
from headkv.reference import (
    FrameArchive,
    ReferenceGenerator,
    attention_rows,
    brute_force_novelty,
    brute_force_pair,
    brute_force_topk,
    brute_force_victim,
    masked_attention_reference,
)
from headkv.roles import HeadRole, HeadRoleMap
from headkv.rollout import (
    HeadWiseHyper,
    HeadWiseStrategy,
    RolloutEngine,
    UnboundedStrategy,
    generate_rollout,
)
from headkv.tensor_ops import RopeParams

TOY = ModelConfig(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=0)
ROPE = RopeParams.default_for(16)
SCHED = [("acceptance prompt", 1)]

TOY_MODEL_JSON = {"L": 4, "H": 6, "d": 16, "s": 16, "f": 3, "grid_h": 4, "grid_w": 4, "seed": 0}


class _Timer:
    def __init__(self, limit_s: float):
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s exceeds {self.limit}s"


def _report(num: int, name: str, timer: _Timer) -> None:
    timer.check()
    print(f"[acceptance] criterion {num:02d} {name}: PASS ({timer.elapsed:.2f}s)")


def toy_role_map(tmp_path) -> HeadRoleMap:
    cfg = config_from_dict({
        "model": dict(TOY_MODEL_JSON),
        "prompt_schedule": [["acceptance prompt", 1]],
        "n_blocks": 8,
        "output_dir": str(tmp_path / "prof"),
    })
    return HeadRoleMap.load(cmd_profile(cfg)["role_map"])


def test_criterion_01_budget_reproduction(tmp_path):
    with _Timer(1.0) as t:
        cfg = config_from_dict({"output_dir": str(tmp_path)})
        paths = cmd_budget(cfg, counts=(72, 90, 198))
        rows = list(csv.DictReader(paths["budget"].open()))
        got_slots = [int(r["frame_slots"]) for r in rows]
        got_rel = [float(r["relative_budget"]) for r in rows]
        assert [r["method"] for r in rows] == [
            "head_wise", "uniform_21", "uniform_16", "uniform_8", "uniform_12"]
        assert got_slots == [3096, 7560, 5760, 2880, 4320]
        for got, want in zip(got_rel, [100.0, 244.2, 186.0, 93.0, 139.5]):
            assert abs(got - want) <= 0.05
    _report(1, "budget reproduction", t)


def test_criterion_02_classification_counts():
    with _Timer(1.0) as t:
        rng = np.random.default_rng(123)
        for layers, heads in ((30, 12), (36, 10), (12, 30)):
            raw = rng.random((layers, heads, 3))
            report = ProfileReport(layers=layers, heads=heads,
                                   means=raw / raw.sum(axis=2, keepdims=True),
                                   n_blocks=1, n_repeats=1, n_prompts=1)
            counts = classify_heads(report, 0.25, 0.20).counts()
            assert counts[HeadRole.ANCHOR] == 90
            assert counts[HeadRole.LOCAL] == 72
            assert counts[HeadRole.MEMORY] == 198
    _report(2, "classification counts", t)


def _random_packed_instance(rng):
    n_layers = int(rng.integers(1, 5))
    n_heads = int(rng.integers(1, 9))
    d = int(rng.choice([8, 16]))
    s = int(rng.choice([4, 16]))
    f = int(rng.integers(1, 4))
    rope = RopeParams.default_for(d)
    encs, queries = [], []
    ids = sorted({(int(rng.integers(n_layers)), int(rng.integers(n_heads)))
                  for _ in range(int(rng.integers(1, 7)))})
    pos = np.column_stack((np.arange(s) // 2, np.arange(s) % 2)).astype(np.int64)
    for (l, h) in ids:
        n_history = int(rng.choice([0, 1, 4, 8]))  # mixed role capacities
        frames = [FrameKV(keys=rng.standard_normal((s, d)),
                          values=rng.standard_normal((s, d)),
                          spatial_positions=pos, global_frame_index=idx)
                  for idx in range(n_history + f)]
        seq = assemble(l, h, frames[:n_history], frames[n_history:])
        encs.append(reencode_temporal(seq, rope))
        queries.append(rng.standard_normal((f * s, d)))
    return encs, queries


def test_criterion_03_packed_attention_equivalence():
    with _Timer(60.0) as t:
        rng = np.random.default_rng(2024)
        n_instances = 1000
        for _ in range(n_instances):
            encs, queries = _random_packed_instance(rng)
            buf64 = pack(encs, queries, dtype=np.float64)
            out64 = packed_attention(buf64)
            buf32 = pack(encs, queries, dtype=np.float32)
            out32 = packed_attention(buf32)
            for enc, q, o64, o32 in zip(encs, queries, out64, out32):
                ref = attention_rows(q, enc.keys, enc.values)
                assert np.abs(o64 - ref).max() < 1e-12
                assert np.abs(o32 - ref).max() < 1e-5
    _report(3, f"packed-attention equivalence ({n_instances} instances)", t)


def test_criterion_04_retention_correctness(tmp_path):
    with _Timer(60.0) as t:
        role_map = toy_role_map(tmp_path)
        weights = init_model(TOY)
        strategy = HeadWiseStrategy(TOY, weights, role_map, HeadWiseHyper())
        record = generate_rollout(weights, TOY, ROPE, strategy, SCHED, 64,
                                  keep_records=True, record_retention=True)
        archive = FrameArchive.from_record(record)
        checked = 0
        for step_idx, snap_map in enumerate(record.retention):
            block = record.blocks[step_idx]
            for (l, h), snap in snap_map.items():
                q_sp = block.layer_records[l].q_spatial[h]
                ref = masked_attention_reference(
                    archive, l, h, snap.provenance, snap.key_token_temporal,
                    q_sp, snap.query_frame_indices, TOY.s, ROPE)
                assert np.abs(ref - snap.output).max() < 1e-10
                checked += 1
        assert checked == 64 * TOY.L * TOY.H
    _report(4, "retention correctness (64 blocks, every head)", t)


def test_criterion_05_rope_boundedness(tmp_path):
    with _Timer(120.0) as t:
        role_map = toy_role_map(tmp_path)
        weights = init_model(TOY)
        strategy = HeadWiseStrategy(TOY, weights, role_map, HeadWiseHyper())
        record = generate_rollout(weights, TOY, ROPE, strategy, SCHED, 256,
                                  record_retention=True)
        caps = {HeadRole.LOCAL: 3, HeadRole.ANCHOR: 6, HeadRole.MEMORY: 10}
        seen_max = {role: 0 for role in caps}
        for step_idx, snap_map in enumerate(record.retention):
            for (l, h), snap in snap_map.items():
                role = role_map.role(l, h)
                dist = int(snap.query_frame_indices.max() - snap.key_token_temporal.min())
                assert dist <= caps[role], f"block {step_idx + 1} {role} distance {dist}"
                seen_max[role] = max(seen_max[role], dist)
        assert seen_max == caps
        for role, cap in caps.items():
            last = max(int(snap.query_frame_indices.max() - snap.key_token_temporal.min())
                       for (l, h), snap in record.retention[-1].items()
                       if role_map.role(l, h) is role)
            assert last == cap
    _report(5, "temporal re-encoding boundedness (256 blocks)", t)


def test_criterion_06_episodic_invariants(tmp_path):
    with _Timer(120.0) as t:
        scenic = ModelConfig(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=0,
                             scene_period=9, scene_jitter=0.02)
        role_map = toy_role_map(tmp_path)
        weights = init_model(scenic)
        hyper = HeadWiseHyper(b_epi=5, b_fast=3, tau_novel=0.95, update_interval=3)
        strategy = HeadWiseStrategy(scenic, weights, role_map, hyper)
        engine = RolloutEngine(weights, scenic, ROPE, strategy)
        memory = strategy.episodic
        decisions = []
        for i in range(1, 301):
            block = engine.step(i, "acceptance prompt")
            decisions.extend(engine.commit(block, "acceptance prompt"))
            assert len(memory.entries) <= hyper.b_epi
            hashes = {
                hashlib.sha256(repr(memory.slot_identity_sequence(l, h)).encode()).hexdigest()
                for (l, h) in memory.memory_heads
            }
            assert len(hashes) == 1
        rejected = [d for d in decisions if not d.admitted]
        assert rejected, "scene shifts should produce near-duplicate rejections"
        for d in decisions:
            assert d.admitted == (d.delta < hyper.tau_novel)
        assert all(d.delta >= hyper.tau_novel for d in rejected)
    _report(6, f"episodic invariants (300 blocks, {len(rejected)} rejections)", t)


def test_criterion_07_oracle_suites():
    with _Timer(60.0) as t:
        rng = np.random.default_rng(77)
        heads = [(0, 0), (0, 1), (1, 0)]
        pos = np.zeros((4, 2), dtype=np.int64)

        def slots(idx):
            return {lh: FrameKV(keys=rng.standard_normal((4, 6)),
                                values=rng.standard_normal((4, 6)),
                                spatial_positions=pos, global_frame_index=idx)
                    for lh in heads}

        n_cases = 500
        for case in range(n_cases):
            n_entries = int(rng.integers(1, 7))
            mem = EpisodicMemory(capacity=8, memory_heads=heads, tokens_per_frame=4)
            stored = [slots(3 * i) for i in range(n_entries)]
            pk = {lh: rng.standard_normal(6) for lh in heads}
            for i, sl in enumerate(stored):
                mem.try_admit(sl, 3 * i, i + 1, tau_novel=2.0, prompt_keys=pk)
            cand = slots(99)
            assert mem.novelty_score(cand) == pytest.approx(
                brute_force_novelty(cand, [e.slots for e in mem.entries]), abs=1e-12)
            if n_entries >= 2:
                assert mem.find_redundant_pair() == brute_force_pair(
                    [e.slots for e in mem.entries])
            if n_entries >= 4:  # leaves >= 2 non-summary entries beside the summary
                summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], pk)
                mem.entries = [summary] + mem.entries[2:]
                assert mem.select_merge_victim() == brute_force_victim(
                    [e.slots for e in mem.entries])
            scores = list(rng.standard_normal(12))
            k = int(rng.integers(1, 12))
            full_sort = sorted(range(12), key=lambda n: (-scores[n], n))[:k]
            assert brute_force_topk(scores, k) == full_sort
        # top-s via compression path against the sort oracle
        for case in range(500):
            s = 6
            one_head = [(0, 0)]
            mem = EpisodicMemory(capacity=4, memory_heads=one_head, tokens_per_frame=s)
            a = {(0, 0): FrameKV(keys=rng.standard_normal((s, 6)),
                                 values=rng.standard_normal((s, 6)),
                                 spatial_positions=np.zeros((s, 2), dtype=np.int64),
                                 global_frame_index=0)}
            b = {(0, 0): FrameKV(keys=rng.standard_normal((s, 6)),
                                 values=rng.standard_normal((s, 6)),
                                 spatial_positions=np.zeros((s, 2), dtype=np.int64),
                                 global_frame_index=3)}
            pk = {(0, 0): rng.standard_normal(6)}
            mem.try_admit(a, 0, 1, 2.0, pk)
            mem.try_admit(b, 3, 2, 2.0, pk)
            summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], pk)
            cat = np.vstack([a[(0, 0)].keys, b[(0, 0)].keys])
            pkv = pk[(0, 0)]
            cos = [float(np.dot(row, pkv) / (np.linalg.norm(row) * np.linalg.norm(pkv)))
                   for row in cat]
            expected = brute_force_topk(cos, s)
            got = [int(tok) if int(fr) == 0 else s + int(tok)
                   for fr, tok in summary.slots[(0, 0)].provenance]
            assert got == expected
    _report(7, "oracle suites (novelty/pair/victim/top-s, 500+ cases each)", t)


def test_criterion_08_unbounded_cache_consistency():
    with _Timer(30.0) as t:
        weights = init_model(TOY)
        run = generate_rollout(weights, TOY, ROPE, UnboundedStrategy(TOY), SCHED, 16)
        ref = ReferenceGenerator(weights, TOY, ROPE).run(16, SCHED)
        for blk, rblk in zip(run.blocks, ref):
            assert np.abs(blk.hidden() - rblk.hidden()).max() < 1e-10
    _report(8, "unbounded-cache consistency (16 blocks)", t)


def test_criterion_09_stability_metric(tmp_path):
    with _Timer(120.0) as t:
        base = {
            "model": dict(TOY_MODEL_JSON),
            "prompt_schedule": [["acceptance prompt", 1]],
            "n_blocks": 8,
            "output_dir": str(tmp_path / "ident"),
            "profiling": {"sampled_blocks": [3, 5], "window": 8},
            "stability": {"runs": 4, "axis": "prompts",
                          "prompt_pool": ["acceptance prompt"] * 4},
        }
        cfg = config_from_dict(base)
        paths = cmd_stability(cfg)
        rows = {r["role"]: float(r["s_c"]) for r in csv.DictReader(paths["stability"].open())}
        assert rows["average"] == 1.0
        assert rows["anchor"] == rows["local"] == rows["memory"] == 1.0

        varied = dict(base)
        varied["output_dir"] = str(tmp_path / "varied")
        varied["stability"] = {"runs": 4, "axis": "prompts",
                               "prompt_pool": [f"pool prompt {k}" for k in range(4)]}
        cfg2 = config_from_dict(varied)
        paths2 = cmd_stability(cfg2)
        maps = [HeadRoleMap.load(paths2[f"role_map_run{r}"]) for r in range(4)]
        recomputed = core_stability_ratio(maps)
        rows2 = {r["role"]: float(r["s_c"]) for r in csv.DictReader(paths2["stability"].open())}
        assert rows2["anchor"] == pytest.approx(recomputed.s_anchor, abs=1e-12)
        assert rows2["local"] == pytest.approx(recomputed.s_local, abs=1e-12)
        assert rows2["memory"] == pytest.approx(recomputed.s_memory, abs=1e-12)
        assert rows2["average"] == pytest.approx(recomputed.s_avg, abs=1e-12)
    _report(9, "stability metric", t)


def test_criterion_10_memory_accounting(tmp_path):
    with _Timer(120.0) as t:
        role_map = toy_role_map(tmp_path)
        s, d = TOY.s, TOY.d
        hw_cfg = config_from_dict({
            "model": dict(TOY_MODEL_JSON),
            "strategy": {"type": "head_wise"},
            "head_role_map": str(tmp_path / "prof" / "role_map.json"),
            "prompt_schedule": [["acceptance prompt", 1]],
            "n_blocks": 32,
            "output_dir": str(tmp_path / "hw"),
        })
        hw_cfg.with_oracle = False
        hw_rows = list(csv.DictReader(cmd_generate(hw_cfg)["metrics"].open()))
        for row in hw_rows:
            assert int(row["stored_scalar_count"]) == int(row["frame_slots_live"]) * s * d * 2

        uw_cfg = config_from_dict({
            "model": dict(TOY_MODEL_JSON),
            "strategy": {"type": "uniform_window", "W": 21},
            "prompt_schedule": [["acceptance prompt", 1]],
            "n_blocks": 32,
            "output_dir": str(tmp_path / "uw"),
        })
        uw_cfg.with_oracle = False
        uw_rows = list(csv.DictReader(cmd_generate(uw_cfg)["metrics"].open()))

        counts = role_map.counts()
        budget_hw = (counts[HeadRole.LOCAL] * 4 + counts[HeadRole.ANCHOR] * 7
                     + counts[HeadRole.MEMORY] * 11)
        budget_uw = TOY.L * TOY.H * 21
        got = int(hw_rows[-1]["stored_scalar_count"]) / int(uw_rows[-1]["stored_scalar_count"])
        want = budget_hw / budget_uw
        assert abs(got - want) / want < 0.02
    _report(10, "memory accounting", t)
