import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import headkv
from headkv import assembly, cache, rollout, tensor_ops
from headkv.assembly import assemble
from headkv.commands import cmd_generate
from headkv.config import config_from_dict
from headkv.errors import ConfigError, SequencingError
from headkv.model import ModelConfig, init_model
from headkv.roles import HeadRole, role_map_from_lists
from headkv.rollout import (
    HeadWiseHyper,
    HeadWiseStrategy,
    RolloutEngine,
    WindowStrategy,
)
from headkv.tensor_ops import RopeParams
from helpers import root, run_with_retention

SCHED = [("rollout prompt", 1)]


def run(weights, cfg, rope, strategy, schedule, n_blocks):
    """Every (block, decisions, row) a rollout yields, in block order."""
    return list(RolloutEngine(weights, cfg, rope, strategy).run(n_blocks, schedule))


def admissions(steps):
    return [d for _, decisions, _ in steps for d in decisions]


def small_setup(seed=1, **kwargs):
    cfg = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=seed, **kwargs)
    return cfg, init_model(cfg), RopeParams.default_for(8)


def hand_map(cfg, n_anchor=1, n_local=1):
    heads = cfg.heads
    return role_map_from_lists(cfg.L, cfg.H, anchor=heads[:n_anchor],
                               local=heads[n_anchor:n_anchor + n_local])


def mixed_map(cfg):
    """Head (l, h) takes role (l + h) % 3: all three roles in every layer, no
    role's heads contiguous."""
    heads = cfg.heads
    return role_map_from_lists(cfg.L, cfg.H, anchor=[lh for lh in heads if sum(lh) % 3 == 0],
                               local=[lh for lh in heads if sum(lh) % 3 == 1])


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        cfg, weights, rope = small_setup()
        a = run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 5)
        b = run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 5)
        for (ba, _, _), (bb, _, _) in zip(a, b):
            np.testing.assert_array_equal(np.vstack(ba.frames), np.vstack(bb.frames))

    def test_head_wise_runs_bit_identical(self):
        cfg, weights, rope = small_setup()
        rm = hand_map(cfg)
        a = run(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 12)
        b = run(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 12)
        for (ba, _, _), (bb, _, _) in zip(a, b):
            np.testing.assert_array_equal(np.vstack(ba.frames), np.vstack(bb.frames))
        assert [d.delta for d in admissions(a)] == [d.delta for d in admissions(b)]

    def test_block_one_identical_across_strategies(self):
        cfg, weights, rope = small_setup()
        rm = hand_map(cfg)
        runs = [
            run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 1),
            run(weights, cfg, rope, WindowStrategy(cfg, window=6), SCHED, 1),
            run(weights, cfg, rope, WindowStrategy(cfg, window=6, n_sink=1), SCHED, 1),
            run(weights, cfg, rope, HeadWiseStrategy(cfg, weights, rm), SCHED, 1),
        ]
        base = np.vstack(runs[0][0][0].frames)
        for steps in runs[1:]:
            np.testing.assert_array_equal(np.vstack(steps[0][0].frames), base)


class TestContextLengths:
    def test_unbounded_context_grows_linearly(self):
        cfg, weights, rope = small_setup()
        n_heads = cfg.L * cfg.H
        for block, _, _ in run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 6):
            assert block.frame_slots == n_heads * cfg.f * block.index

    def test_uniform_window_saturates(self):
        cfg, weights, rope = small_setup()
        slots = [block.frame_slots
                 for block, _, _ in run(weights, cfg, rope, WindowStrategy(cfg, window=6), SCHED, 8)]
        n_heads = cfg.L * cfg.H
        assert slots[0] == n_heads * 3
        assert slots[1] == n_heads * 6
        assert all(s == n_heads * 6 for s in slots[2:])

    def test_sink_window_saturates_at_sink_plus_window(self):
        cfg, weights, rope = small_setup()
        steps = run(weights, cfg, rope, WindowStrategy(cfg, window=6, n_sink=2), SCHED, 10)
        n_heads = cfg.L * cfg.H
        assert steps[-1][0].frame_slots == n_heads * 8

    def test_head_wise_steady_state(self, toy_config, toy_weights, rope, toy_role_map):
        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map, HeadWiseHyper())
        steps = run(toy_weights, toy_config, rope, strategy, SCHED, 24)
        # 5 local * 4 + 6 anchor * 7 + 13 memory * 11 once the episodic tier is full
        assert steps[-1][0].frame_slots == 205

    def test_scalar_count_tracks_frame_slots(self):
        cfg, weights, rope = small_setup()
        for block, _, _ in run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 5):
            assert block.stored_scalars == block.frame_slots * cfg.s * cfg.d * 2

    @pytest.mark.parametrize("make", [
        lambda cfg, weights, rm: WindowStrategy(cfg, window=None),
        lambda cfg, weights, rm: WindowStrategy(cfg, window=6),
        lambda cfg, weights, rm: WindowStrategy(cfg, window=cfg.f),
        lambda cfg, weights, rm: WindowStrategy(cfg, window=6, n_sink=1),
        lambda cfg, weights, rm: HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=1)),
    ], ids=["unbounded", "uniform_window", "uniform_window_W_f", "sink_window", "head_wise"])
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
        steps = run(weights, cfg, rope, WindowStrategy(cfg, window=None), SCHED, 1)
        assert len(steps) == 1
        assert steps[0][2].active_prompt == "rollout prompt"

    def test_prompt_switch_applied(self):
        cfg, weights, rope = small_setup()
        sched = [("first", 1), ("second", 4)]
        steps = run(weights, cfg, rope, WindowStrategy(cfg, window=None), sched, 6)
        assert [row.active_prompt for _, _, row in steps] == ["first"] * 3 + ["second"] * 3

    def test_schedule_must_start_at_one(self):
        cfg, weights, rope = small_setup()
        with pytest.raises(ConfigError):
            run(weights, cfg, rope, WindowStrategy(cfg, window=None), [("x", 2)], 4)

    def test_schedule_is_checked_before_the_first_block(self, monkeypatch):
        """run refuses a bad schedule when called, not when first iterated,
        and steps no block."""
        cfg, weights, rope = small_setup()
        engine = RolloutEngine(weights, cfg, rope, WindowStrategy(cfg, window=None))
        monkeypatch.setattr(engine, "step", lambda *a, **k: pytest.fail("a block was stepped"))
        for schedule in ([("x", 2)], [("x", 1), ("y", 3), ("z", 3)], []):
            with pytest.raises(ConfigError):
                engine.run(4, schedule)

    def test_mismatched_config_rejected(self):
        cfg, weights, rope = small_setup()
        other = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=99)
        with pytest.raises(ConfigError):
            RolloutEngine(weights, cfg, rope, WindowStrategy(other, window=None))

    @pytest.mark.parametrize("change", [{"seed": 5}, {"scene_period": 9}], ids=repr)
    def test_engine_refuses_weights_for_another_config(self, change):
        """Such an engine used to step: its block inputs came from the
        weights' own seed and scene period, everything else from cfg."""
        cfg, _, rope = small_setup()
        weights = init_model(replace(cfg, **change))
        with pytest.raises(ConfigError, match="weights were built for a different model config"):
            RolloutEngine(weights, cfg, rope, WindowStrategy(cfg, 6))

    @pytest.mark.parametrize("change", [{"seed": 5}, {"scene_period": 9}], ids=repr)
    def test_head_wise_strategy_refuses_weights_for_another_config(self, change):
        cfg, _, _ = small_setup()
        weights = init_model(replace(cfg, **change))
        with pytest.raises(ConfigError, match="weights were built for a different model config"):
            HeadWiseStrategy(cfg, weights, hand_map(cfg))

    @pytest.mark.parametrize("window,n_sink", [(None, 0), (6, 0), (6, 1)])
    def test_window_commit_out_of_order_raises(self, window, n_sink):
        cfg, weights, rope = small_setup()
        engine = RolloutEngine(weights, cfg, rope, WindowStrategy(cfg, window=window, n_sink=n_sink))
        engine.commit(engine.step(1, "p"), "p")
        with pytest.raises(SequencingError):
            engine.commit(engine.step(3, "p"), "p")
        with pytest.raises(SequencingError):
            engine.commit(engine.step(1, "p"), "p")

    @pytest.mark.parametrize("bad", [
        {"b_epi": 0}, {"b_fast": 0}, {"update_interval": 0},
        {"tau_novel": float("nan")}, {"tau_novel": float("inf")},
    ], ids=repr)
    def test_hyper_values_checked(self, bad):
        with pytest.raises(ConfigError):
            HeadWiseHyper(**bad)

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
        worst = 0.0
        for block, _, _ in RolloutEngine(weights, cfg, rope, strategy).run(300, SCHED):
            hid = np.vstack(block.frames)
            assert np.isfinite(hid).all()
            worst = max(worst, float(np.abs(hid).max()))
        assert worst < 1e3


class TestMemoryStaysFlat:
    """Peak memory of a bounded strategy does not grow with the rollout: the
    cached rope tables and pooled keys must stay bounded too, and neither
    `run()` nor `cmd_generate` may keep anything per block."""

    @staticmethod
    def peak_bytes(rollout, n_blocks):
        """Traced peak while rollout(n_blocks) runs."""
        tracemalloc.start()
        try:
            rollout(n_blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("make_strategy", [
        lambda cfg, w: HeadWiseStrategy(cfg, w, hand_map(cfg, 2, 2), HeadWiseHyper(update_interval=1)),
        lambda cfg, w: WindowStrategy(cfg, 8, n_sink=1),
    ], ids=["head_wise", "sink_window"])
    def test_peak_at_4n_blocks_within_1_5x_of_n(self, make_strategy):
        cfg = ModelConfig(L=2, H=4, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=5)
        weights, rope = init_model(cfg), RopeParams.default_for(16)

        def step_and_commit(n_blocks):
            engine = RolloutEngine(weights, cfg, rope, make_strategy(cfg, weights))
            for i in range(1, n_blocks + 1):
                engine.commit(engine.step(i, "p"), "p")

        n = 40
        assert self.peak_bytes(step_and_commit, 4 * n) <= 1.5 * self.peak_bytes(step_and_commit, n)

    @pytest.mark.parametrize("make_strategy", [
        lambda cfg, w, rm: HeadWiseStrategy(cfg, w, rm, HeadWiseHyper(update_interval=1)),
        lambda cfg, w, rm: WindowStrategy(cfg, 8, n_sink=1),
    ], ids=["head_wise", "sink_window"])
    def test_run_on_toy_grid(self, make_strategy, toy_config, toy_weights, rope, toy_role_map):
        def consume_run(n_blocks):
            strategy = make_strategy(toy_config, toy_weights, toy_role_map)
            for _ in RolloutEngine(toy_weights, toy_config, rope, strategy).run(n_blocks, SCHED):
                pass

        assert self.peak_bytes(consume_run, 160) <= 1.5 * self.peak_bytes(consume_run, 40)

    def test_cmd_generate_without_oracle(self, tmp_path):
        def generate(n_blocks):
            cfg = config_from_dict({"model": {"seed": 0}, "n_blocks": n_blocks,
                                    "strategy": {"type": "sink_window", "W": 8, "n_sink": 1}})
            cfg.with_oracle = False
            cmd_generate(cfg, str(tmp_path / str(n_blocks)))

        assert self.peak_bytes(generate, 160) <= 1.5 * self.peak_bytes(generate, 40)


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


# A mid-grid head-wise rollout in a fresh interpreter, so the heap starts
# fresh: prints the mean minor page faults per block over blocks 9-24.
FAULT_PROBE = """
import resource
import headkv as hk
from headkv.roles import role_map_from_lists
cfg = hk.ModelConfig(L=4, H=8, d=32, s=64, f=3, grid_h=8, grid_w=8, seed=7, scene_period=9)
weights = hk.init_model(cfg)
heads = cfg.heads
role_map = role_map_from_lists(cfg.L, cfg.H, anchor=heads[0::4], local=heads[1::4][:6])
engine = hk.RolloutEngine(weights, cfg, hk.RopeParams.default_for(cfg.d),
                          hk.HeadWiseStrategy(cfg, weights, role_map))
faults = []
for i in range(1, 25):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.commit(engine.step(i, "a prompt"), "a prompt")
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[8:]) / len(faults[8:]))
"""


class TestAttentionWorkspace:
    """Each engine packs and scores into its own grow-only workspace."""

    def test_nothing_returned_or_cached_points_into_it(self, toy_config, toy_weights, rope, toy_role_map):
        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map, HeadWiseHyper(update_interval=1))
        engine = RolloutEngine(toy_weights, toy_config, rope, strategy)
        for i in range(1, 7):
            block = engine.step(i, "p")
            engine.commit(block, "p")
            held = block.frames + list(block.q_spatial.values())
            held += [a for slots in block.kv for fr in slots.values() for a in (fr.keys, fr.values)]
            held += [a for lh in toy_config.heads for fr in strategy.history_frames(*lh)
                     for a in (fr.keys, fr.values)]
            for flat in engine._workspace._flats.values():
                assert not any(np.may_share_memory(a, flat) for a in held)

    def test_two_engines_in_alternation_equal_each_alone(self, toy_config, toy_weights, rope, toy_role_map):
        def engines():
            return (RolloutEngine(toy_weights, toy_config, rope,
                                  HeadWiseStrategy(toy_config, toy_weights, toy_role_map)),
                    RolloutEngine(toy_weights, toy_config, rope, WindowStrategy(toy_config, None)))

        def latents(engine, i):
            block = engine.step(i, "p")
            engine.commit(block, "p")
            return b"".join(fr.tobytes() for fr in block.frames)

        n_blocks = 8
        alone = [[latents(engine, i) for i in range(1, n_blocks + 1)] for engine in engines()]
        together = ([], [])
        pair = engines()
        for i in range(1, n_blocks + 1):
            for out, engine in zip(together, pair):
                out.append(latents(engine, i))
        assert list(together) == alone

    def test_unbounded_rollout_regrows_it_about_log2_times(self, toy_config, toy_weights, rope):
        engine = RolloutEngine(toy_weights, toy_config, rope, WindowStrategy(toy_config, None))
        workspace = engine._workspace
        flat = workspace.flat
        grown = []

        def recording_flat(dtype, size):
            out = flat(dtype, size)
            if not grown or out is not grown[-1]:
                grown.append(out)
            return out

        workspace.flat = recording_flat
        n_blocks = 64
        for i in range(1, n_blocks + 1):
            engine.commit(engine.step(i, "p"), "p")
        sizes = [a.size for a in grown]
        assert all(n & (n - 1) == 0 for n in sizes) and sizes == sorted(set(sizes))
        assert len(grown) <= math.log2(n_blocks) + 1

    def test_mid_rollout_does_not_fault_its_buffers_in_every_block(self):
        """500 to 1500 minor faults per block when pack and attention
        allocated fresh buffers per layer and head, which glibc returned to
        the system and faulted in again."""
        pytest.importorskip("resource")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(headkv.__file__).parents[1]), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                              env=env, check=True)
        assert float(proc.stdout) < 100


class TestStepTransientMemory:
    def test_steady_mid_step_stages_no_layer_copy_of_the_context(self):
        """A warm mid head-wise step allocates, beyond what it returns, less
        than 1.5 times one layer's packed keys and values: each head's frames
        are copied once, into the workspace. When encoding built every
        head's rotated keys and concatenated values before `pack`, a whole
        layer's copy was alive at once (4.90 MB against a bound of 2.76 MB)."""
        cfg = ModelConfig(L=4, H=8, d=32, s=64, f=3, grid_h=8, grid_w=8, seed=7, scene_period=9)
        weights = init_model(cfg)
        heads = cfg.heads
        role_map = role_map_from_lists(cfg.L, cfg.H, anchor=heads[0::4], local=heads[1::4][:6])
        engine = RolloutEngine(weights, cfg, RopeParams.default_for(cfg.d), HeadWiseStrategy(cfg, weights, role_map))
        for i in range(1, 17):
            engine.commit(engine.step(i, "p"), "p")
        tracemalloc.start()
        try:
            block = engine.step(17, "p")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = list(block.frames) + list(block.q_spatial.values())
        returned += [a for slots in block.kv for fr in slots.values() for a in (fr.keys, fr.values)]
        returned_bytes = sum({id(root(a)): root(a).nbytes for a in returned}.values())
        layer_bytes = block.stored_scalars * 8 / cfg.L
        assert peak - returned_bytes < 1.5 * layer_bytes


class TestRotationsBuiltOnce:
    """Spatial rotations are built with the engine and temporal rotations once
    per frame-index tuple, shared by every head: a warm head-wise step misses
    the `frame_rotation` cache never, a warm window step once for its key
    and once for its query rotation."""

    @pytest.fixture
    def misses(self):
        tensor_ops.frame_rotation.cache_clear()
        return lambda: tensor_ops.frame_rotation.cache_info().misses

    def test_warm_head_wise_steps_build_no_rotation(self, misses, toy_config, toy_weights,
                                                    rope, toy_role_map):
        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map, HeadWiseHyper(update_interval=1))
        engine = RolloutEngine(toy_weights, toy_config, rope, strategy)
        for i in range(1, 13):
            engine.commit(engine.step(i, "p"), "p")
        warm = misses()
        assert warm                             # each role's rotations at least
        for i in range(13, 17):
            block = engine.step(i, "p")
            engine.commit(block, "p")
            assert block.frame_slots == 205    # steady state: 5 local, 6 anchor, 13 memory heads
        assert misses() == warm

    @pytest.mark.parametrize("window, n_sink", [(8, 1), (None, 0)], ids=["sink_window", "unbounded"])
    def test_warm_window_steps_build_two_rotations(self, misses, toy_config, toy_weights, rope,
                                                   window, n_sink):
        strategy = WindowStrategy(toy_config, window, n_sink=n_sink)
        engine = RolloutEngine(toy_weights, toy_config, rope, strategy)
        for i in range(1, 13):
            engine.commit(engine.step(i, "p"), "p")
        for i in range(13, 17):
            before = misses()
            engine.commit(engine.step(i, "p"), "p")
            # every head holds the same global indices: one key and one query
            # rotation for all 24 heads
            assert misses() - before == 2


class TestOneWindowPerPolicy:
    """A frame is one (layer, head) -> FrameKV map: a commit rolls one window
    per cache policy, and each head-wise role window holds that role's heads."""

    @pytest.mark.parametrize("make_strategy, rolls", [
        (lambda cfg, w: WindowStrategy(cfg, None), 1),
        (lambda cfg, w: WindowStrategy(cfg, 6), 1),
        (lambda cfg, w: WindowStrategy(cfg, 8, n_sink=1), 1),
        (lambda cfg, w: HeadWiseStrategy(cfg, w, mixed_map(cfg), HeadWiseHyper(update_interval=1)), 3),
    ], ids=["unbounded", "uniform_window", "sink_window", "head_wise"])
    def test_window_rolls_per_commit(self, monkeypatch, make_strategy, rolls):
        cfg, weights, rope = small_setup()
        calls = []
        roll = cache.FrameWindow.roll

        def counted(window, block_index, frames):
            calls.append(block_index)
            return roll(window, block_index, frames)

        monkeypatch.setattr(cache.FrameWindow, "roll", counted)
        engine = RolloutEngine(weights, cfg, rope, make_strategy(cfg, weights))
        for i in range(1, 7):
            block = engine.step(i, "p")
            calls.clear()
            engine.commit(block, "p")
            assert calls == [i] * rolls

    def test_role_windows_hold_exactly_their_heads(self):
        cfg, weights, rope = small_setup(scene_period=1)
        role_map = mixed_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, role_map, HeadWiseHyper(update_interval=1))
        steps = run(weights, cfg, rope, strategy, SCHED, 12)
        assert any(d.admitted for d in admissions(steps))
        for role in HeadRole:
            frames = strategy.windows[role].frames
            assert frames
            assert all(sorted(frame) == role_map.heads_of(role) for frame in frames)
        memory = role_map.heads_of(HeadRole.MEMORY)
        assert all(sorted(e.slots) == memory for e in strategy.episodic.entries)


class TestWindowEncode:
    def test_sink_window_queries_take_the_current_frames_indices(self):
        cfg, weights, rope = small_setup()
        strategy = WindowStrategy(cfg, window=6, n_sink=1)
        engine = RolloutEngine(weights, cfg, rope, strategy)
        for i in range(1, 4):
            engine.commit(engine.step(i, "p"), "p")
        current = [frame[(0, 0)] for frame in engine.step(4, "p").kv]
        context = strategy.history_frames(0, 0) + current
        enc = assemble(0, 0, context, cfg.f, strategy.encode(context), rope)
        assert list(enc.key_frame_indices) == [0, 6, 7, 8, 9, 10, 11]
        assert list(enc.query_frame_indices) == [9, 10, 11]


class TestRunWithRetention:
    """The test helper that reads the masked-oracle evidence at the engine's
    assemble and packed-attention seams."""

    STRATEGIES = {
        "head_wise": lambda cfg, weights: HeadWiseStrategy(cfg, weights, mixed_map(cfg), HeadWiseHyper()),
        "sink_window": lambda cfg, weights: WindowStrategy(cfg, window=6, n_sink=1),
        "unbounded": lambda cfg, weights: WindowStrategy(cfg, window=None),
    }

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_every_head_once_per_block(self, name):
        cfg, weights, rope = small_setup()
        engine = RolloutEngine(weights, cfg, rope, self.STRATEGIES[name](cfg, weights))
        plain = run(weights, cfg, rope, self.STRATEGIES[name](cfg, weights), SCHED, 6)
        steps = list(run_with_retention(engine, 6, SCHED))
        assert [block.index for block, _ in steps] == list(range(1, 7))
        for (block, retention), (want, _, _) in zip(steps, plain):
            assert list(retention) == cfg.heads
            # the wrapped seams change nothing the engine computes
            np.testing.assert_array_equal(np.vstack(block.frames), np.vstack(want.frames))
            assert sum(len(r.provenance) for r in retention.values()) == block.frame_slots * cfg.s
            for r in retention.values():
                assert r.key_token_temporal.shape == (len(r.provenance),)
                assert r.query_frame_indices.shape == (cfg.f,)
                assert r.output.shape == (cfg.f * cfg.s, cfg.d)

    @pytest.mark.parametrize("stop_after", [None, 2])
    def test_seams_restored(self, stop_after):
        """After a full run, and after a consumer closes the generator early."""
        cfg, weights, rope = small_setup()
        strategy = HeadWiseStrategy(cfg, weights, hand_map(cfg), HeadWiseHyper())
        steps = run_with_retention(RolloutEngine(weights, cfg, rope, strategy), 4, SCHED)
        for n, _ in enumerate(steps, 1):
            assert rollout.assemble is not assembly.assemble
            assert rollout.packed_attention is not assembly.packed_attention
            if n == stop_after:
                steps.close()
        assert n == (stop_after or 4)
        assert rollout.assemble is assembly.assemble
        assert rollout.packed_attention is assembly.packed_attention


class TestEpisodicCadence:
    def test_candidates_only_at_update_interval(self):
        cfg, weights, rope = small_setup(scene_period=1)
        rm = hand_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=3))
        steps = run(weights, cfg, rope, strategy, SCHED, 18)
        assert [d.block_index for d in admissions(steps)] == [3, 6, 9, 12, 15, 18]

    def test_candidate_is_exited_blocks_first_frame(self):
        cfg, weights, rope = small_setup(scene_period=1)
        rm = hand_map(cfg)
        strategy = HeadWiseStrategy(cfg, weights, rm, HeadWiseHyper(update_interval=1))
        run(weights, cfg, rope, strategy, SCHED, 6)
        # with B_fast=3=f, the block exiting at roll i is block i-1
        frames = [e.frame_index for e in strategy.episodic.entries if not e.is_summary]
        assert frames == [0, 3, 6, 9, 12]

    def test_newest_candidate_wins(self):
        cfg, weights, rope = small_setup(scene_period=1)
        strategy = HeadWiseStrategy(cfg, weights, hand_map(cfg), HeadWiseHyper(update_interval=2))
        steps = run(weights, cfg, rope, strategy, SCHED, 9)
        # blocks 1..8 leave fast memory at rolls 2..9; each update takes only
        # the newest, so frames 3, 9 and 15 are never scored
        assert [d.block_index for d in admissions(steps)] == [2, 4, 6, 8]
        assert [e.frame_index for e in strategy.episodic.entries] == [0, 6, 12, 18]
