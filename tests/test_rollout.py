import tracemalloc

import numpy as np
import pytest

from headkv.errors import ConfigError
from headkv.model import ModelConfig, init_model
from headkv.roles import role_map_from_lists
from headkv.rollout import (
    HeadWiseHyper,
    HeadWiseStrategy,
    RolloutEngine,
    UnboundedStrategy,
    WindowStrategy,
    generate_rollout,
)
from headkv.tensor_ops import RopeParams

SCHED = [("rollout prompt", 1)]


def small_setup(seed=1, **kwargs):
    cfg = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=seed, **kwargs)
    return cfg, init_model(cfg), RopeParams.default_for(8)


def hand_map(cfg, n_anchor=1, n_local=1):
    heads = cfg.heads
    return role_map_from_lists(cfg.L, cfg.H, anchor=heads[:n_anchor],
                               local=heads[n_anchor:n_anchor + n_local])


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        cfg, weights, rope = small_setup()
        a = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 5)
        b = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 5)
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.hidden(), bb.hidden())

    def test_head_wise_runs_bit_identical(self):
        cfg, weights, rope = small_setup()
        rm = hand_map(cfg)
        a = generate_rollout(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 12)
        b = generate_rollout(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 12)
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.hidden(), bb.hidden())
        assert [d.delta for d in a.admissions] == [d.delta for d in b.admissions]

    def test_block_one_identical_across_strategies(self):
        cfg, weights, rope = small_setup()
        rm = hand_map(cfg)
        runs = [
            generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 1),
            generate_rollout(weights, cfg, rope, WindowStrategy(cfg, window=6), SCHED, 1),
            generate_rollout(weights, cfg, rope, WindowStrategy(cfg, window=6, n_sink=1), SCHED, 1),
            generate_rollout(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 1),
        ]
        base = runs[0].blocks[0].hidden()
        for run in runs[1:]:
            np.testing.assert_array_equal(run.blocks[0].hidden(), base)


class TestContextLengths:
    def test_unbounded_context_grows_linearly(self):
        cfg, weights, rope = small_setup()
        n_heads = cfg.L * cfg.H
        record = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 6)
        for row in record.metrics:
            assert row.frame_slots_live == n_heads * cfg.f * row.block_index

    def test_uniform_window_saturates(self):
        cfg, weights, rope = small_setup()
        record = generate_rollout(weights, cfg, rope, WindowStrategy(cfg, window=6), SCHED, 8)
        slots = [m.frame_slots_live for m in record.metrics]
        n_heads = cfg.L * cfg.H
        assert slots[0] == n_heads * 3
        assert slots[1] == n_heads * 6
        assert all(s == n_heads * 6 for s in slots[2:])

    def test_sink_window_saturates_at_sink_plus_window(self):
        cfg, weights, rope = small_setup()
        record = generate_rollout(weights, cfg, rope,
                                  WindowStrategy(cfg, window=6, n_sink=2), SCHED, 10)
        n_heads = cfg.L * cfg.H
        assert record.metrics[-1].frame_slots_live == n_heads * 8

    def test_head_wise_steady_state(self, toy_config, toy_weights, rope, toy_role_map):
        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map, HeadWiseHyper())
        record = generate_rollout(toy_weights, toy_config, rope, strategy, SCHED, 24)
        # 5 local * 4 + 6 anchor * 7 + 13 memory * 11 once the episodic tier is full
        assert record.metrics[-1].frame_slots_live == 205

    def test_scalar_count_tracks_frame_slots(self):
        cfg, weights, rope = small_setup()
        record = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 5)
        for row in record.metrics:
            assert row.stored_scalar_count == row.frame_slots_live * cfg.s * cfg.d * 2

    @pytest.mark.parametrize("make", [
        lambda cfg, weights, rm: UnboundedStrategy(cfg),
        lambda cfg, weights, rm: WindowStrategy(cfg, window=6),
        lambda cfg, weights, rm: WindowStrategy(cfg, window=6, n_sink=1),
        lambda cfg, weights, rm: HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=1)),
    ], ids=["unbounded", "uniform_window", "sink_window", "head_wise"])
    def test_step_reports_what_it_attended(self, make):
        cfg, weights, rope = small_setup(scene_period=1)
        strategy = make(cfg, weights, hand_map(cfg))
        engine = RolloutEngine(weights, cfg, rope, strategy)
        for i in range(1, 13):
            expected = sum(len(strategy.history_frames(l, h)) + cfg.f for (l, h) in cfg.heads)
            block = engine.step(i, "p")
            assert block.frame_slots == expected
            assert block.stored_scalars == expected * cfg.s * cfg.d * 2
            engine.commit(block, "p")


class TestScheduleHandling:
    def test_single_block_rollout(self):
        cfg, weights, rope = small_setup()
        record = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), SCHED, 1)
        assert len(record.blocks) == 1
        assert record.metrics[0].active_prompt == "rollout prompt"

    def test_prompt_switch_applied(self):
        cfg, weights, rope = small_setup()
        sched = [("first", 1), ("second", 4)]
        record = generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), sched, 6)
        assert [m.active_prompt for m in record.metrics] == ["first"] * 3 + ["second"] * 3

    def test_schedule_must_start_at_one(self):
        cfg, weights, rope = small_setup()
        with pytest.raises(ConfigError):
            generate_rollout(weights, cfg, rope, UnboundedStrategy(cfg), [("x", 2)], 4)

    def test_mismatched_config_rejected(self):
        cfg, weights, rope = small_setup()
        other = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=99)
        with pytest.raises(ConfigError):
            RolloutEngine(weights, cfg, rope, UnboundedStrategy(other))

    def test_role_map_grid_checked(self):
        cfg, weights, rope = small_setup()
        wrong = role_map_from_lists(1, 3, anchor=[(0, 0)], local=[])
        with pytest.raises(ConfigError):
            HeadWiseStrategy(cfg, weights, wrong)


class TestLongRolloutStability:
    def test_hidden_norms_finite_over_300_blocks(self):
        cfg, weights, rope = small_setup(scene_period=9, scene_jitter=0.02)
        rm = hand_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper())
        record = generate_rollout(weights, cfg, rope, strategy, SCHED, 300)
        worst = 0.0
        for block in record.blocks:
            hid = block.hidden()
            assert np.isfinite(hid).all()
            worst = max(worst, float(np.abs(hid).max()))
        assert worst < 1e3


class TestMemoryStaysFlat:
    """Peak memory of a bounded strategy does not grow with the rollout: the
    cached rope tables and pooled keys must stay bounded too."""

    @staticmethod
    def peak_bytes(make_strategy, n_blocks):
        cfg = ModelConfig(L=2, H=4, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=5)
        weights, rope = init_model(cfg), RopeParams.default_for(16)
        engine = RolloutEngine(weights, cfg, rope, make_strategy(cfg, weights))
        tracemalloc.start()
        try:
            for i in range(1, n_blocks + 1):
                engine.commit(engine.step(i, "p"), "p")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("make_strategy", [
        lambda cfg, w: HeadWiseStrategy(cfg, w, hand_map(cfg, 2, 2), HeadWiseHyper(update_interval=1)),
        lambda cfg, w: WindowStrategy(cfg, 8, n_sink=1),
    ], ids=["head_wise", "sink_window"])
    def test_peak_at_4n_blocks_within_1_5x_of_n(self, make_strategy):
        n = 40
        assert self.peak_bytes(make_strategy, 4 * n) <= 1.5 * self.peak_bytes(make_strategy, n)


class TestCachedFramesOwnTheirRows:
    """A frame kept past its block holds only its own keys and values, not
    a view into the block's (f*s, d) arrays."""

    @pytest.mark.parametrize("make_strategy", [
        lambda cfg, w: HeadWiseStrategy(cfg, w, hand_map(cfg, 2, 2), HeadWiseHyper(update_interval=1)),
        lambda cfg, w: WindowStrategy(cfg, 8, n_sink=1),
    ], ids=["head_wise", "sink_window"])
    def test_bytes_held_equal_scalars_accounted(self, make_strategy):
        cfg = ModelConfig(L=2, H=4, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=5, scene_period=1)
        weights = init_model(cfg)
        strategy = make_strategy(cfg, weights)
        engine = RolloutEngine(weights, cfg, RopeParams.default_for(16), strategy)
        for i in range(1, 13):
            engine.commit(engine.step(i, "p"), "p")
        accounted = 0
        held = {}
        for lh in cfg.heads:
            for fr in strategy.history_frames(*lh):
                accounted += fr.keys.size + fr.values.size
                for arr in (fr.keys, fr.values):
                    assert arr.base is None
                    held[id(arr)] = arr.nbytes
        if isinstance(strategy, HeadWiseStrategy):
            assert strategy.episodic.entries      # the episodic tier is covered
        assert sum(held.values()) == accounted * 8


class TestEpisodicCadence:
    def test_candidates_only_at_update_interval(self):
        cfg, weights, rope = small_setup(scene_period=1)
        rm = hand_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=3))
        record = generate_rollout(weights, cfg, rope, strategy, SCHED, 18)
        assert [d.block_index for d in record.admissions] == [3, 6, 9, 12, 15, 18]

    def test_candidate_is_exited_blocks_first_frame(self):
        cfg, weights, rope = small_setup(scene_period=1)
        rm = hand_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=1))
        generate_rollout(weights, cfg, rope, strategy, SCHED, 6)
        # with B_fast=3=f, the block exiting at roll i is block i-1
        frames = [e.frame_index for e in strategy.episodic.entries if not e.is_summary]
        assert frames == [0, 3, 6, 9, 12]

    def test_candidate_mode_all_evaluates_backlog(self):
        cfg, weights, rope = small_setup(scene_period=1)
        rm = hand_map(cfg)
        latest = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=2, candidate_mode="latest"))
        latest_record = generate_rollout(weights, cfg, rope, latest, SCHED, 9)
        all_mode = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=2, candidate_mode="all"))
        all_record = generate_rollout(weights, cfg, rope, all_mode, SCHED, 9)
        # blocks 1..8 leave fast memory at rolls 2..9; "all" evaluates each
        # exited block at the next update, "latest" only the newest
        assert [d.block_index for d in latest_record.admissions] == [2, 4, 6, 8]
        assert [d.block_index for d in all_record.admissions] == [2, 4, 4, 6, 6, 8, 8]


class TestLatentNovelty:
    def rollout(self, metric):
        cfg, weights, rope = small_setup(scene_period=4, scene_jitter=0.02)
        hyper = HeadWiseHyper(update_interval=2, candidate_mode="all", novelty_metric=metric)
        strategy = HeadWiseStrategy(cfg, weights, hand_map(cfg), hyper)
        return cfg, hyper, strategy, generate_rollout(weights, cfg, rope, strategy, SCHED, 100)

    def test_latent_archive_stays_bounded(self):
        cfg, hyper, strategy, _ = self.rollout("latent")
        assert len(strategy._latents) <= hyper.b_fast + cfg.f

    def test_admissions_score_frame_latents(self):
        *_, record = self.rollout("latent")
        *_, key_record = self.rollout("key_cosine")
        deltas = [d.delta for d in record.admissions]
        # only the first admission meets an empty memory
        assert deltas[0] == -1.0
        assert all(-1.0 < d <= 1.0 for d in deltas[1:])
        assert deltas != [d.delta for d in key_record.admissions]
