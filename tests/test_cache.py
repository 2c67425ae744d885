import numpy as np
import pytest

from headkv.cache import (
    AnchorCache,
    FrameKV,
    LocalCache,
    MemoryCache,
    budget_table,
    frame_slots,
    make_cache,
    roll_after_block,
)
from headkv.errors import ConfigError, SequencingError, ShapeError
from headkv.roles import HeadRole, role_map_from_lists

F = 3


def make_frame(idx: int, s: int = 2, d: int = 4) -> FrameKV:
    rng = np.random.default_rng(idx + 1000)
    pos = np.column_stack((np.arange(s) // 2, np.arange(s) % 2)).astype(np.int64)
    return FrameKV(keys=rng.standard_normal((s, d)), values=rng.standard_normal((s, d)),
                   spatial_positions=pos, global_frame_index=idx)


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
            FrameKV(keys=np.zeros((2, 4)), values=np.zeros((3, 4)),
                    spatial_positions=np.zeros((2, 2), dtype=np.int64), global_frame_index=0)


class TestRollFirstBlock:
    def test_local(self):
        cache = LocalCache()
        roll_after_block(cache, 1, block_frames(1))
        assert cache.prev_frame.global_frame_index == 2

    def test_anchor_captures_first_frames(self):
        cache = AnchorCache(anchor_count=F)
        roll_after_block(cache, 1, block_frames(1))
        assert indices(cache.anchor_frames) == [0, 1, 2]
        assert cache.prev_frame.global_frame_index == 2

    def test_memory_no_eviction(self):
        cache = MemoryCache(b_fast=3, layer=0, head=0)
        evicted = roll_after_block(cache, 1, block_frames(1))
        assert indices(cache.fast) == [0, 1, 2]
        assert evicted == []


class TestRollSecondBlock:
    def test_memory_evicts_whole_block(self):
        cache = MemoryCache(b_fast=3, layer=0, head=0)
        cache.roll(1, block_frames(1))
        evicted = cache.roll(2, block_frames(2))
        assert indices(cache.fast) == [3, 4, 5]
        assert indices(evicted) == [0, 1, 2]
        # the exited block's first frame is the episodic candidate
        first = [fr for fr in evicted if fr.global_frame_index % F == 0]
        assert indices(first) == [0]

    def test_sequencing_enforced(self):
        cache = MemoryCache(b_fast=3, layer=0, head=0)
        cache.roll(1, block_frames(1))
        with pytest.raises(SequencingError):
            cache.roll(3, block_frames(3))

    @pytest.mark.parametrize("b_fast", [2, 3, 4, 5, 7])
    def test_fast_window_closed_form(self, b_fast):
        """After rolling block i, fast holds {f*i - b_fast .. f*i - 1} clamped at 0."""
        cache = MemoryCache(b_fast=b_fast, layer=0, head=0)
        for i in range(1, 11):
            cache.roll(i, block_frames(i))
            lo = max(F * i - b_fast, 0)
            assert indices(cache.fast) == list(range(lo, F * i))

    @pytest.mark.parametrize("b_fast", [2, 3, 4, 5, 7])
    def test_every_frame_evicted_exactly_once(self, b_fast):
        cache = MemoryCache(b_fast=b_fast, layer=0, head=0)
        seen = []
        for i in range(1, 11):
            seen += indices(cache.roll(i, block_frames(i)))
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


class TestRetainedFrames:
    def roll_through(self, cache, upto):
        for i in range(1, upto + 1):
            roll_after_block(cache, i, block_frames(i))

    def test_local_at_block_5(self):
        cache = LocalCache()
        self.roll_through(cache, 4)
        frames = cache.history() + block_frames(5)
        assert indices(frames) == [11, 12, 13, 14]

    def test_anchor_at_block_5(self):
        cache = AnchorCache(anchor_count=F)
        self.roll_through(cache, 4)
        frames = cache.history() + block_frames(5)
        assert indices(frames) == [0, 1, 2, 11, 12, 13, 14]

    def test_anchor_at_block_2_deduplicates_prev(self):
        cache = AnchorCache(anchor_count=F)
        self.roll_through(cache, 1)
        frames = cache.history() + block_frames(2)
        assert indices(frames) == [0, 1, 2, 3, 4, 5]
        assert len(frames) == 6

    def test_local_at_block_1_is_current_only(self):
        frames = LocalCache().history() + block_frames(1)
        assert indices(frames) == [0, 1, 2]

    def test_anchor_frames_never_evicted(self):
        cache = AnchorCache(anchor_count=F)
        for i in range(1, 31):
            roll_after_block(cache, i, block_frames(i))
            retained = cache.history() + block_frames(i + 1)
            assert indices(retained)[:3] == [0, 1, 2]

    @pytest.mark.parametrize("role,cap", [
        (HeadRole.LOCAL, F + 1),
        (HeadRole.ANCHOR, 2 * F + 1),
    ])
    def test_capacity_reached_and_never_exceeded(self, role, cap):
        cache = make_cache(role, 0, 0, F, 3)
        counts = []
        for i in range(1, 13):
            counts.append(len(cache.history() + block_frames(i)))
            roll_after_block(cache, i, block_frames(i))
        assert max(counts) == cap
        assert all(c <= cap for c in counts)
        assert counts[-1] == cap

    def test_memory_capacity_without_episodic(self):
        cache = MemoryCache(b_fast=3, layer=0, head=0)
        for i in range(1, 9):
            frames = cache.history() + block_frames(i)
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
