import math
from dataclasses import replace

import numpy as np
import pytest

from headkv.errors import ConfigError, SequencingError
from headkv.model import ModelConfig, init_model
from headkv.reference import (
    FrameArchive,
    ReferenceGenerator,
    attention_rows,
    brute_force_novelty,
    brute_force_pair,
    brute_force_topk,
    brute_force_victim,
    full_attention_reference,
    masked_attention_reference,
    rotate_temporal_rows,
    token_cosine_fidelity,
)
from headkv.roles import HeadRole, role_map_from_lists
from headkv.rollout import (
    HeadWiseHyper,
    HeadWiseStrategy,
    RolloutEngine,
    WindowStrategy,
)
from headkv.tensor_ops import RopeParams
from helpers import attention, run_with_retention

SCHED = [("oracle prompt", 1)]


@pytest.mark.parametrize("change", [{"seed": 5}, {"scene_period": 9}], ids=repr)
def test_oracle_refuses_weights_for_another_config(change):
    cfg = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=1)
    with pytest.raises(ConfigError, match="weights were built for a different model config"):
        ReferenceGenerator(init_model(replace(cfg, **change)), cfg, RopeParams.default_for(8))


def run_blocks(weights, cfg, rope, strategy, n_blocks):
    """Every block a rollout yields."""
    engine = RolloutEngine(weights, cfg, rope, strategy)
    return [block for block, _, _ in engine.run(n_blocks, SCHED)]


def retention_blocks(weights, cfg, rope, strategy, n_blocks):
    """Every block a rollout yields, each with its per-head retention."""
    return list(run_with_retention(RolloutEngine(weights, cfg, rope, strategy), n_blocks, SCHED))


def small_setup(seed=2):
    cfg = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=seed)
    return cfg, init_model(cfg), RopeParams.default_for(8)


class TestAttentionRows:
    def test_matches_fast_path(self):
        rng = np.random.default_rng(0)
        q, k, v = rng.standard_normal((5, 8)), rng.standard_normal((9, 8)), rng.standard_normal((9, 8))
        np.testing.assert_allclose(attention_rows(q, k, v), attention(q, k, v), atol=1e-12)


class TestRotateTemporalRows:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((4, 8))
        out = rotate_temporal_rows(rows, np.zeros(4, dtype=np.int64), RopeParams.default_for(8))
        np.testing.assert_array_equal(out, rows)

    def test_matches_vectorized_rotation(self):
        from headkv.tensor_ops import TEMPORAL, apply_rope, rope_rotation

        rng = np.random.default_rng(2)
        rope = RopeParams.default_for(8)
        rows = rng.standard_normal((6, 8))
        t = rng.integers(0, 20, 6)
        pos = np.column_stack((t, np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)))
        np.testing.assert_allclose(rotate_temporal_rows(rows, t, rope),
                                   apply_rope(rows, rope_rotation(pos, rope, (TEMPORAL,))), atol=1e-12)


class TestEmptyChannelGroup:
    """A rope split may leave the temporal group, or both spatial groups,
    without channels: its rotations then have no run for them, the prefix
    rotations included."""

    CFG = ModelConfig(L=2, H=3, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=0)
    SPLITS = [RopeParams(0, 8, 8), RopeParams(16, 0, 0)]
    IDS = ["no_temporal", "temporal_only"]

    @pytest.mark.parametrize("split", SPLITS, ids=IDS)
    def test_unbounded_equals_reference(self, split):
        weights = init_model(self.CFG)
        run = run_blocks(weights, self.CFG, split, WindowStrategy(self.CFG, window=None), 9)
        ref = ReferenceGenerator(weights, self.CFG, split).run(9, SCHED)
        for blk, rblk in zip(run, ref):
            np.testing.assert_allclose(np.vstack(blk.frames), np.vstack(rblk.frames), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("split", SPLITS, ids=IDS)
    @pytest.mark.parametrize("make", [
        lambda cfg, weights: HeadWiseStrategy(cfg, weights, role_map_from_lists(
            cfg.L, cfg.H, anchor=[(0, 0), (1, 1)], local=[(0, 1), (1, 2)]), HeadWiseHyper()),
        lambda cfg, weights: WindowStrategy(cfg, window=6, n_sink=1),
    ], ids=["head_wise", "sink_window"])
    def test_bounded_latents_finite(self, split, make):
        weights = init_model(self.CFG)
        for blk in run_blocks(weights, self.CFG, split, make(self.CFG, weights), 9):
            assert np.isfinite(np.vstack(blk.frames)).all()


class TestFullAttentionReference:
    def test_block_one_equals_engine(self):
        cfg, weights, rope = small_setup()
        engine_run = run_blocks(weights, cfg, rope, WindowStrategy(cfg, window=None), 1)
        ref_run = ReferenceGenerator(weights, cfg, rope).run(1, SCHED)
        np.testing.assert_allclose(np.vstack(engine_run[0].frames), np.vstack(ref_run[0].frames), atol=1e-12)

    def test_steps_must_run_in_order(self):
        cfg, weights, rope = small_setup()
        ref = ReferenceGenerator(weights, cfg, rope)
        with pytest.raises(SequencingError):
            ref.step(2, "p")
        ref.step(1, "p")
        with pytest.raises(SequencingError):
            ref.step(1, "p")

    def test_window_covering_history_equals_reference(self):
        cfg, weights, rope = small_setup()
        n = 4
        window = cfg.f * n  # never evicts anything over n blocks
        run = run_blocks(weights, cfg, rope, WindowStrategy(cfg, window=window), n)
        ref = ReferenceGenerator(weights, cfg, rope).run(n, SCHED)
        for blk, rblk in zip(run, ref):
            np.testing.assert_allclose(np.vstack(blk.frames), np.vstack(rblk.frames), atol=1e-10)

    def test_unbounded_engine_matches_over_ten_blocks(self):
        cfg, weights, rope = small_setup()
        run = run_blocks(weights, cfg, rope, WindowStrategy(cfg, window=None), 10)
        ref = ReferenceGenerator(weights, cfg, rope).run(10, SCHED)
        for blk, rblk in zip(run, ref):
            np.testing.assert_allclose(np.vstack(blk.frames), np.vstack(rblk.frames), atol=1e-10)

    def test_fidelity_in_range_and_recomputable(self):
        cfg, weights, rope = small_setup()
        rm = role_map_from_lists(cfg.L, cfg.H, anchor=cfg.heads[:1], local=cfg.heads[1:2])
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper())
        run = run_blocks(weights, cfg, rope, strategy, 10)
        ref = ReferenceGenerator(weights, cfg, rope).run(10, SCHED)
        fid = token_cosine_fidelity(run[-1].frames, ref[-1].frames)
        assert -1.0 <= fid <= 1.0
        # second implementation: plain scalar accumulation per token
        a = np.vstack(run[-1].frames)
        b = np.vstack(ref[-1].frames)
        cosines = []
        for r in range(a.shape[0]):
            num = math.fsum(float(x) * float(y) for x, y in zip(a[r], b[r]))
            na = math.sqrt(math.fsum(float(x) ** 2 for x in a[r]))
            nb = math.sqrt(math.fsum(float(y) ** 2 for y in b[r]))
            cosines.append(num / (na * nb))
        assert fid == pytest.approx(sum(cosines) / len(cosines), abs=1e-12)


@pytest.fixture(scope="module")
def head_wise_run():
    cfg, weights, rope = small_setup()
    rm = role_map_from_lists(cfg.L, cfg.H, anchor=cfg.heads[:1], local=cfg.heads[1:2])
    strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper())
    return cfg, rope, rm, retention_blocks(weights, cfg, rope, strategy, 8)


class TestMaskedAttentionReference:

    def test_mask_everything_equals_full_reference(self):
        cfg, weights, rope = small_setup()
        run = retention_blocks(weights, cfg, rope, WindowStrategy(cfg, window=None), 3)
        archive = FrameArchive.from_blocks([block for block, _ in run])
        i = 3
        block, retention = run[i - 1]
        snap = retention[(1, 1)]
        q_sp = block.q_spatial[(1, 1)]
        got = masked_attention_reference(archive, 1, 1, snap.provenance,
                                         snap.key_token_temporal, q_sp,
                                         snap.query_frame_indices, cfg.s, rope)
        all_keys = np.vstack(archive.keys[(1, 1)])
        all_vals = np.vstack(archive.values[(1, 1)])
        frame_idx = np.arange(cfg.f * i, dtype=np.int64)
        q_frames = np.arange(cfg.f * (i - 1), cfg.f * i, dtype=np.int64)
        want = full_attention_reference(all_keys, all_vals, frame_idx, q_sp, q_frames,
                                        cfg.s, rope)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mask_current_only_equals_within_block(self, head_wise_run):
        cfg, rope, rm, run = head_wise_run
        block, retention = run[0]
        archive = FrameArchive.from_blocks([block for block, _ in run])
        snap = retention[(0, 2)]
        q_sp = block.q_spatial[(0, 2)]
        got = masked_attention_reference(archive, 0, 2, snap.provenance,
                                         snap.key_token_temporal, q_sp,
                                         snap.query_frame_indices, cfg.s, rope)
        keys = np.vstack([frame[(0, 2)].keys for frame in block.kv])
        vals = np.vstack([frame[(0, 2)].values for frame in block.kv])
        k_enc = rotate_temporal_rows(keys, np.repeat(np.arange(cfg.f), cfg.s), rope)
        q_enc = rotate_temporal_rows(q_sp, np.repeat(np.arange(cfg.f), cfg.s), rope)
        np.testing.assert_allclose(got, attention_rows(q_enc, k_enc, vals), atol=1e-12)

    def test_live_local_head_snapshot_matches_fast_path(self, head_wise_run):
        cfg, rope, rm, run = head_wise_run
        local_head = rm.heads_of(HeadRole.LOCAL)[0]
        archive = FrameArchive.from_blocks([block for block, _ in run])
        i = 7
        block, retention = run[i - 1]
        snap = retention[local_head]
        q_sp = block.q_spatial[local_head]
        ref = masked_attention_reference(archive, *local_head, snap.provenance,
                                         snap.key_token_temporal, q_sp,
                                         snap.query_frame_indices, cfg.s, rope)
        np.testing.assert_allclose(ref, snap.output, atol=1e-10)

    def test_every_head_every_block(self, head_wise_run):
        cfg, rope, rm, run = head_wise_run
        archive = FrameArchive.from_blocks([block for block, _ in run])
        for block, retention in run:
            for (l, h), snap in retention.items():
                q_sp = block.q_spatial[(l, h)]
                ref = masked_attention_reference(archive, l, h, snap.provenance,
                                                 snap.key_token_temporal, q_sp,
                                                 snap.query_frame_indices, cfg.s, rope)
                np.testing.assert_allclose(ref, snap.output, atol=1e-10)


class TestBruteForceSelectors:
    def frames(self, rng, n, heads=((0, 0), (0, 1))):
        from headkv.cache import FrameKV

        out = []
        for idx in range(n):
            slots = {}
            for lh in heads:
                keys = rng.standard_normal((3, 6))
                slots[lh] = FrameKV(keys=keys, values=keys, global_frame_index=3 * idx)
            out.append(slots)
        return out

    def test_single_entry_novelty_is_its_similarity(self):
        rng = np.random.default_rng(3)
        entries = self.frames(rng, 1)
        cand = self.frames(rng, 1)[0]
        expected = brute_force_novelty(cand, entries)
        sims = []
        for lh in sorted(cand):
            a = cand[lh].keys.mean(axis=0)
            b = entries[0][lh].keys.mean(axis=0)
            sims.append(float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))))
        assert expected == pytest.approx(sum(sims) / len(sims), abs=1e-12)

    def test_pair_beats_naive_scan(self):
        rng = np.random.default_rng(4)
        entries = self.frames(rng, 5)
        i, j = brute_force_pair(entries)
        assert 0 <= i < j < 5

    def test_topk_tie_break(self):
        assert brute_force_topk([0.5, 0.9, 0.5, 0.9], 3) == [1, 3, 0]

    def test_victim_range(self):
        rng = np.random.default_rng(5)
        entries = self.frames(rng, 5)
        assert 1 <= brute_force_victim(entries) < 5
