import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from headkv.cache import FrameKV, FrameWindow, budget_table, frame_slots, roll_after_block
from headkv.errors import ConfigError, SequencingError, ShapeError
from headkv.roles import HeadRole, role_map_from_lists
from headkv.rollout import HeadWiseHyper, HeadWiseStrategy

F = 3


def make_frame(idx: int, s: int = 2, d: int = 4) -> FrameKV:
    rng = np.random.default_rng(idx + 1000)
    return FrameKV(keys=rng.standard_normal((s, d)), values=rng.standard_normal((s, d)),
                   global_frame_index=idx)


def block_frames(i: int, f: int = F) -> list[FrameKV]:
    base = f * (i - 1)
    return [make_frame(base + t) for t in range(f)]


def indices(frames) -> list[int]:
    return [fr.global_frame_index for fr in frames]


class TestFrameKV:
    def test_identity_provenance(self):
        fr = make_frame(5, s=3)
        np.testing.assert_array_equal(fr.provenance[:, 0], [5, 5, 5])
        np.testing.assert_array_equal(fr.provenance[:, 1], [0, 1, 2])

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ShapeError):
            FrameKV(keys=np.zeros((2, 4)), values=np.zeros((3, 4)), global_frame_index=0)


class TestRollFirstBlock:
    def test_local(self):
        cache = FrameWindow(0, 1)
        roll_after_block(cache, 1, block_frames(1))
        assert indices(list(cache.frames)) == [2]

    def test_anchor_captures_first_frames(self):
        cache = FrameWindow(F, 1)
        roll_after_block(cache, 1, block_frames(1))
        # the first f frames are the anchors; the last frame is among them
        assert indices(list(cache.frames)) == [0, 1, 2]

    def test_memory_no_eviction(self):
        cache = FrameWindow(0, 3)
        evicted = roll_after_block(cache, 1, block_frames(1))
        assert indices(list(cache.frames)) == [0, 1, 2]
        assert evicted == []


class TestRollSecondBlock:
    def test_memory_evicts_whole_block(self):
        cache = FrameWindow(0, 3)
        cache.roll(1, block_frames(1))
        evicted = cache.roll(2, block_frames(2))
        assert indices(list(cache.frames)) == [3, 4, 5]
        assert indices(evicted) == [0, 1, 2]
        # the exited block's first frame is the episodic candidate
        first = [fr for fr in evicted if fr.global_frame_index % F == 0]
        assert indices(first) == [0]

    def test_sequencing_enforced(self):
        cache = FrameWindow(0, 3)
        cache.roll(1, block_frames(1))
        with pytest.raises(SequencingError):
            cache.roll(3, block_frames(3))

    @pytest.mark.parametrize("b_fast", [2, 3, 4, 5, 7])
    def test_fast_window_closed_form(self, b_fast):
        """After rolling block i, fast holds {f*i - b_fast .. f*i - 1} clamped at 0."""
        cache = FrameWindow(0, b_fast)
        for i in range(1, 11):
            cache.roll(i, block_frames(i))
            lo = max(F * i - b_fast, 0)
            assert indices(list(cache.frames)) == list(range(lo, F * i))

    @pytest.mark.parametrize("b_fast", [2, 3, 4, 5, 7])
    def test_every_frame_evicted_exactly_once(self, b_fast):
        cache = FrameWindow(0, b_fast)
        seen = []
        for i in range(1, 11):
            seen += indices(cache.roll(i, block_frames(i)))
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


class TestFrameWindowProperty:
    @settings(deadline=None)
    @given(n_sink=st.integers(0, 3), keep=st.none() | st.integers(0, 6),
           f=st.integers(1, 4), n_blocks=st.integers(1, 40))
    def test_history_is_sinks_plus_recent(self, n_sink, keep, f, n_blocks):
        cache = FrameWindow(n_sink, keep)
        seen: list[int] = []
        evicted: list[int] = []
        for i in range(1, n_blocks + 1):
            frames = block_frames(i, f)
            evicted += indices(cache.roll(i, frames))
            seen += indices(frames)
            kept = indices(list(cache.frames))
            stop = n_sink if keep is None else max(n_sink, len(seen) - keep)
            assert kept == seen[:n_sink] + seen[stop:]
            # every frame that left, left once and in order
            assert evicted == [i for i in seen if i not in kept]

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            FrameWindow(-1, 1)
        with pytest.raises(ConfigError):
            FrameWindow(0, -1)


class FrameWindowMachine(RuleBasedStateMachine):
    """Random roll sequences, in order and out of order, on the five window
    policies the strategies use, checked after every rule against a plain
    list that appends each block and pops from position n_sink."""

    @initialize(policy=st.sampled_from(["local", "anchor", "fast", "window", "unbounded"]),
                f=st.integers(1, 4), b_fast=st.integers(1, 5), n_sink=st.integers(0, 3),
                extra=st.integers(0, 6))
    def start(self, policy, f, b_fast, n_sink, extra):
        # window W = f + extra, so W - f frames are kept besides the current block
        self.n_sink, self.keep = {"local": (0, 1), "anchor": (f, 1), "fast": (0, b_fast),
                                  "window": (n_sink, extra), "unbounded": (0, None)}[policy]
        self.f = f
        self.cache = FrameWindow(self.n_sink, self.keep)
        self.model: list[FrameKV] = []
        self.seen: list[FrameKV] = []
        self.block = 0

    @rule()
    def roll_next(self):
        self.block += 1
        frames = block_frames(self.block, self.f)
        self.seen += frames
        self.model += frames
        expected = []
        while self.keep is not None and len(self.model) > self.n_sink + self.keep:
            expected.append(self.model.pop(self.n_sink))
        dropped = self.cache.roll(self.block, frames)
        assert [id(fr) for fr in dropped] == [id(fr) for fr in expected]
        if self.keep is None:
            assert dropped == []

    @rule(offset=st.sampled_from([-2, -1, 0, 2, 3]))
    def roll_out_of_order(self, offset):
        # offset <= 0 repeats an earlier block index, offset >= 2 skips one
        index = self.block + offset
        before = [id(fr) for fr in list(self.cache.frames)]
        with pytest.raises(SequencingError):
            self.cache.roll(index, block_frames(max(index, 1), self.f))
        assert self.cache.last_block == self.block
        assert [id(fr) for fr in list(self.cache.frames)] == before

    @invariant()
    def history_matches_the_model(self):
        assert [id(fr) for fr in list(self.cache.frames)] == [id(fr) for fr in self.model]

    @invariant()
    def history_is_first_sinks_plus_last_keep(self):
        seen = indices(self.seen)
        stop = self.n_sink if self.keep is None else max(self.n_sink, len(seen) - self.keep)
        assert indices(list(self.cache.frames)) == seen[:self.n_sink] + seen[stop:]


TestFrameWindowMachine = FrameWindowMachine.TestCase
TestFrameWindowMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


class TestRetainedFrames:
    def roll_through(self, cache, upto):
        for i in range(1, upto + 1):
            roll_after_block(cache, i, block_frames(i))

    def test_local_at_block_5(self):
        cache = FrameWindow(0, 1)
        self.roll_through(cache, 4)
        frames = list(cache.frames) + block_frames(5)
        assert indices(frames) == [11, 12, 13, 14]

    def test_anchor_at_block_5(self):
        cache = FrameWindow(F, 1)
        self.roll_through(cache, 4)
        frames = list(cache.frames) + block_frames(5)
        assert indices(frames) == [0, 1, 2, 11, 12, 13, 14]

    def test_anchor_at_block_2_deduplicates_prev(self):
        cache = FrameWindow(F, 1)
        self.roll_through(cache, 1)
        frames = list(cache.frames) + block_frames(2)
        assert indices(frames) == [0, 1, 2, 3, 4, 5]
        assert len(frames) == 6

    def test_local_at_block_1_is_current_only(self):
        frames = list(FrameWindow(0, 1).frames) + block_frames(1)
        assert indices(frames) == [0, 1, 2]

    def test_anchor_frames_never_evicted(self):
        cache = FrameWindow(F, 1)
        for i in range(1, 31):
            roll_after_block(cache, i, block_frames(i))
            retained = list(cache.frames) + block_frames(i + 1)
            assert indices(retained)[:3] == [0, 1, 2]

    @pytest.mark.parametrize("role,cap", [
        (HeadRole.LOCAL, F + 1),
        (HeadRole.ANCHOR, 2 * F + 1),
    ])
    def test_capacity_reached_and_never_exceeded(self, role, cap, toy_config, toy_weights,
                                                 toy_role_map):
        """The head-wise strategy gives each role the window whose steady
        state is that role's closed-form budget."""
        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map, HeadWiseHyper())
        cache = strategy.windows[role]
        counts = []
        for i in range(1, 13):
            counts.append(len(list(cache.frames) + block_frames(i)))
            roll_after_block(cache, i, block_frames(i))
        assert max(counts) == cap
        assert all(c <= cap for c in counts)
        assert counts[-1] == cap

    def test_memory_capacity_without_episodic(self):
        cache = FrameWindow(0, 3)
        for i in range(1, 9):
            frames = list(cache.frames) + block_frames(i)
            assert len(frames) <= 3 + F
            roll_after_block(cache, i, block_frames(i))


class TestFrameSlots:
    def full_scale_map(self):
        heads = [(l, h) for l in range(30) for h in range(12)]
        return role_map_from_lists(30, 12, anchor=heads[:90], local=heads[90:162])

    def test_full_scale_total(self):
        budget = frame_slots(self.full_scale_map(), b_epi=5, b_fast=3, f=3)
        assert (budget.n_local, budget.n_anchor, budget.n_memory) == (72, 90, 198)
        assert budget.total == 72 * 4 + 90 * 7 + 198 * 11 == 3096

    def test_uniform_baseline_totals(self):
        rows = budget_table(frame_slots(self.full_scale_map(), 5, 3, 3))
        by_method = {r["method"]: r for r in rows}
        assert by_method["uniform_21"]["frame_slots"] == 360 * 21 == 7560
        assert abs(by_method["uniform_21"]["relative_budget"] - 244.2) < 0.05
        assert by_method["head_wise"]["relative_budget"] == 100.0

    def test_toy_counts(self, toy_role_map):
        budget = frame_slots(toy_role_map, b_epi=5, b_fast=3, f=3)
        assert budget.total == 5 * 4 + 6 * 7 + 13 * 11 == 205

    def test_linear_in_role_counts(self):
        heads = [(0, h) for h in range(10)]
        base = frame_slots(role_map_from_lists(1, 10, anchor=heads[:2], local=heads[2:5]), 5, 3, 3)
        more_local = frame_slots(role_map_from_lists(1, 10, anchor=heads[:2], local=heads[2:6]), 5, 3, 3)
        assert more_local.total - base.total == (F + 1) - (5 + 3 + F)

    def test_parameters_validated(self, toy_role_map):
        with pytest.raises(ConfigError):
            frame_slots(toy_role_map, b_epi=0, b_fast=3, f=3)
