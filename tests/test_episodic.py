import hashlib

import numpy as np
import pytest

from headkv.cache import FrameKV
from headkv.episodic import EpisodicMemory
from headkv.errors import ConfigError, ShapeError
from headkv.reference import (
    brute_force_novelty,
    brute_force_pair,
    brute_force_topk,
    brute_force_victim,
)

S, D = 4, 6
HEADS2 = [(0, 1), (1, 0)]


def frame_from_keys(keys: np.ndarray, idx: int = 0) -> FrameKV:
    s = keys.shape[0]
    pos = np.column_stack((np.arange(s) // 2, np.arange(s) % 2)).astype(np.int64)
    return FrameKV(keys=keys, values=keys * 0.5 + 1.0, spatial_positions=pos,
                   global_frame_index=idx)


def random_slots(rng, heads=HEADS2, s=S, d=D, idx=0):
    return {lh: frame_from_keys(rng.standard_normal((s, d)), idx) for lh in heads}


def memory_with(entries_slots, heads=HEADS2, capacity=5, s=S):
    mem = EpisodicMemory(capacity=capacity, memory_heads=list(heads), tokens_per_frame=s)
    for n, slots in enumerate(entries_slots):
        mem.try_admit(slots, frame_index=3 * n, block_index=n + 1, tau_novel=2.0,
                      prompt_keys=zero_prompt_keys(heads))
    return mem


def zero_prompt_keys(heads=HEADS2, d=D):
    return {lh: np.zeros(d) for lh in heads}


def slot_hash(mem: EpisodicMemory, layer: int, head: int) -> str:
    return hashlib.sha256(repr(mem.slot_identity_sequence(layer, head)).encode()).hexdigest()


class TestNoveltyScore:
    def test_empty_memory_sentinel(self):
        mem = EpisodicMemory(capacity=5, memory_heads=HEADS2, tokens_per_frame=S)
        rng = np.random.default_rng(0)
        assert mem.novelty_score(random_slots(rng)) == -1.0

    def test_identical_candidate_scores_one(self):
        rng = np.random.default_rng(1)
        slots = random_slots(rng)
        mem = memory_with([slots])
        dup = {lh: frame_from_keys(slots[lh].keys.copy(), 9) for lh in HEADS2}
        assert mem.novelty_score(dup) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_three_entries(self):
        rng = np.random.default_rng(2)
        stored = [random_slots(rng, idx=i) for i in range(3)]
        mem = memory_with(stored)
        cand = random_slots(rng, idx=99)
        expected = brute_force_novelty(cand, [e.slots for e in mem.entries])
        assert mem.novelty_score(cand) == pytest.approx(expected, abs=1e-12)

    def test_head_set_mismatch_raises(self):
        mem = EpisodicMemory(capacity=5, memory_heads=HEADS2, tokens_per_frame=S)
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            mem.novelty_score(random_slots(rng, heads=[(0, 1)]))


class TestTryAdmit:
    def test_duplicate_rejected_at_paper_threshold(self):
        rng = np.random.default_rng(4)
        slots = random_slots(rng)
        mem = memory_with([slots])
        dup = {lh: frame_from_keys(slots[lh].keys.copy(), 3) for lh in HEADS2}
        decision = mem.try_admit(dup, 3, 2, tau_novel=0.95, prompt_keys=zero_prompt_keys())
        assert not decision.admitted
        assert decision.delta >= 0.95
        assert len(mem.entries) == 1

    def test_orthogonal_candidate_admitted(self):
        base = np.zeros((S, D))
        base[:, 0] = 1.0
        ortho = np.zeros((S, D))
        ortho[:, 1] = 1.0
        mem = memory_with([{lh: frame_from_keys(base.copy()) for lh in HEADS2}])
        cand = {lh: frame_from_keys(ortho.copy(), 3) for lh in HEADS2}
        decision = mem.try_admit(cand, 3, 2, tau_novel=0.95, prompt_keys=zero_prompt_keys())
        assert decision.admitted
        assert decision.delta == pytest.approx(0.0, abs=1e-12)

    def test_rejection_leaves_memory_bit_identical(self):
        rng = np.random.default_rng(5)
        slots = random_slots(rng)
        mem = memory_with([slots])
        before = {lh: slot_hash(mem, *lh) for lh in HEADS2}
        before_keys = [e.slots[(0, 1)].keys.copy() for e in mem.entries]
        dup = {lh: frame_from_keys(slots[lh].keys.copy(), 3) for lh in HEADS2}
        mem.try_admit(dup, 3, 2, tau_novel=0.95, prompt_keys=zero_prompt_keys())
        assert {lh: slot_hash(mem, *lh) for lh in HEADS2} == before
        for got, want in zip((e.slots[(0, 1)].keys for e in mem.entries), before_keys):
            np.testing.assert_array_equal(got, want)

    def test_eight_admissions_capacity_and_compressions(self):
        rng = np.random.default_rng(6)
        mem = EpisodicMemory(capacity=5, memory_heads=HEADS2, tokens_per_frame=S)
        compressions = 0
        for n in range(8):
            decision = mem.try_admit(random_slots(rng, idx=3 * n), 3 * n, n + 1,
                                     tau_novel=2.0, prompt_keys=zero_prompt_keys())
            assert decision.admitted
            compressions += decision.compressed
            assert len(mem.entries) <= 5
        assert compressions == 3
        assert mem.summary_present

    def test_global_consistency_across_slots(self):
        rng = np.random.default_rng(7)
        mem = EpisodicMemory(capacity=3, memory_heads=HEADS2, tokens_per_frame=S)
        for n in range(6):
            mem.try_admit(random_slots(rng, idx=3 * n), 3 * n, n + 1, tau_novel=2.0,
                          prompt_keys=zero_prompt_keys())
            hashes = {slot_hash(mem, *lh) for lh in HEADS2}
            assert len(hashes) == 1


class TestFindRedundantPair:
    def test_exact_duplicates_found(self):
        rng = np.random.default_rng(8)
        a = random_slots(rng, idx=0)
        b = random_slots(rng, idx=3)
        c = {lh: frame_from_keys(b[lh].keys.copy(), 6) for lh in HEADS2}
        mem = memory_with([a, b, c])
        assert mem.find_redundant_pair() == (1, 2)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(9)
        stored = [random_slots(rng, idx=3 * i) for i in range(4)]
        mem = memory_with(stored)
        assert mem.find_redundant_pair() == brute_force_pair([e.slots for e in mem.entries])

    def test_orthogonal_tie_breaks_lexicographic(self):
        frames = []
        for i in range(3):
            keys = np.zeros((S, D))
            keys[:, i] = 1.0
            frames.append({lh: frame_from_keys(keys.copy(), 3 * i) for lh in HEADS2})
        mem = memory_with(frames)
        assert mem.find_redundant_pair() == (0, 1)

    def test_needs_two_entries(self):
        rng = np.random.default_rng(10)
        mem = memory_with([random_slots(rng)])
        with pytest.raises(ConfigError):
            mem.find_redundant_pair()


def make_summary_memory(non_summary_keys: list[np.ndarray]) -> EpisodicMemory:
    """Memory with a synthetic summary at index 0 followed by given entries."""
    rng = np.random.default_rng(11)
    mem = EpisodicMemory(capacity=len(non_summary_keys) + 1, memory_heads=HEADS2,
                         tokens_per_frame=S)
    summary_slots = {}
    for lh in HEADS2:
        fr = frame_from_keys(rng.standard_normal((S, D)), -1)
        fr.is_summary = True
        fr.global_frame_index = -1
        summary_slots[lh] = fr
    from headkv.episodic import EpisodicEntry

    mem.entries.append(EpisodicEntry(frame_index=-1, is_summary=True, slots=summary_slots))
    for n, keys in enumerate(non_summary_keys):
        mem.entries.append(EpisodicEntry(
            frame_index=3 * n, is_summary=False,
            slots={lh: frame_from_keys(keys.copy(), 3 * n) for lh in HEADS2}))
    return mem


class TestSelectMergeVictim:
    def test_duplicate_pair_victim_by_formula(self):
        """[S, A, B, B'] with B == B': the later duplicate wins the
        neighbor-average argmax (its only neighbor is its twin)."""
        rng = np.random.default_rng(12)
        a = rng.standard_normal((S, D))
        b = rng.standard_normal((S, D))
        mem = make_summary_memory([a, b, b])
        assert mem.select_merge_victim() == 3
        assert brute_force_victim([e.slots for e in mem.entries]) == 3

    def test_two_entries_tie_breaks_low_index(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((S, D))
        b = rng.standard_normal((S, D))
        mem = make_summary_memory([a, b])
        assert mem.select_merge_victim() == 1

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(14)
        mem = make_summary_memory([rng.standard_normal((S, D)) for _ in range(5)])
        assert mem.select_merge_victim() == brute_force_victim([e.slots for e in mem.entries])

    def test_requires_summary(self):
        rng = np.random.default_rng(15)
        mem = memory_with([random_slots(rng, idx=0), random_slots(rng, idx=3)])
        with pytest.raises(ConfigError):
            mem.select_merge_victim()


class TestCompressIntoSummary:
    def test_equal_scores_keep_first_tokens_in_order(self):
        # zero prompt keys give every token cosine 0: ties resolve by position
        rng = np.random.default_rng(16)
        a, b = random_slots(rng, idx=0), random_slots(rng, idx=3)
        mem = memory_with([a, b])
        summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], zero_prompt_keys())
        for lh in HEADS2:
            np.testing.assert_array_equal(summary.slots[lh].keys, a[lh].keys)
            np.testing.assert_array_equal(summary.slots[lh].values, a[lh].values)
            assert summary.slots[lh].is_summary

    def test_prompt_aligned_token_ranked_first(self):
        rng = np.random.default_rng(17)
        a, b = random_slots(rng, idx=0), random_slots(rng, idx=3)
        mem = memory_with([a, b])
        target = b[HEADS2[0]].keys[2]
        prompt_keys = {lh: target.copy() for lh in HEADS2}
        summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], prompt_keys)
        lh0 = HEADS2[0]
        np.testing.assert_array_equal(summary.slots[lh0].keys[0], target)
        # provenance points at the source entry's frame and token
        assert summary.slots[lh0].provenance[0, 0] == 3
        assert summary.slots[lh0].provenance[0, 1] == 2

    def test_selection_matches_sort_oracle(self):
        rng = np.random.default_rng(18)
        s = 8
        heads = [(0, 0)]
        a = {lh: frame_from_keys(rng.standard_normal((s, D)), 0) for lh in heads}
        b = {lh: frame_from_keys(rng.standard_normal((s, D)), 3) for lh in heads}
        mem = EpisodicMemory(capacity=5, memory_heads=heads, tokens_per_frame=s)
        mem.try_admit(a, 0, 1, 2.0, zero_prompt_keys(heads))
        mem.try_admit(b, 3, 2, 2.0, zero_prompt_keys(heads))
        pk = rng.standard_normal(D)
        summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], {heads[0]: pk})

        cat = np.vstack([a[heads[0]].keys, b[heads[0]].keys])
        scores = [float(np.dot(row, pk) / (np.linalg.norm(row) * np.linalg.norm(pk)))
                  for row in cat]
        expected = brute_force_topk(scores, s)
        # provenance (frame, token) maps back to concatenation position
        got_idx = [int(tok) if int(fr) == 0 else s + int(tok)
                   for fr, tok in summary.slots[heads[0]].provenance]
        assert got_idx == expected

    def test_output_token_count_exact(self):
        rng = np.random.default_rng(19)
        a, b = random_slots(rng, idx=0), random_slots(rng, idx=3)
        mem = memory_with([a, b])
        summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], zero_prompt_keys())
        for lh in HEADS2:
            assert summary.slots[lh].tokens == S

    def test_provenance_subset_of_inputs(self):
        rng = np.random.default_rng(20)
        a, b = random_slots(rng, idx=0), random_slots(rng, idx=6)
        mem = memory_with([a, b])
        pk = {lh: rng.standard_normal(D) for lh in HEADS2}
        summary = mem.compress_into_summary(mem.entries[0], mem.entries[1], pk)
        allowed = {(0, t) for t in range(S)} | {(6, t) for t in range(S)}
        for lh in HEADS2:
            for row in summary.slots[lh].provenance:
                assert (int(row[0]), int(row[1])) in allowed

    def test_wrong_token_count_raises(self):
        rng = np.random.default_rng(21)
        a = random_slots(rng, idx=0)
        small = {lh: frame_from_keys(rng.standard_normal((S - 1, D)), 3) for lh in HEADS2}
        mem = memory_with([a])
        from headkv.episodic import EpisodicEntry

        bad = EpisodicEntry(frame_index=3, is_summary=False, slots=small)
        with pytest.raises(ShapeError):
            mem.compress_into_summary(mem.entries[0], bad, zero_prompt_keys())


class TestExhaustiveNoveltySuite:
    def test_novelty_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(22)
        for case in range(60):
            n_layers = int(rng.integers(1, 5))
            n_heads = int(rng.integers(1, 5))
            heads = [(l, h) for l in range(n_layers) for h in range(n_heads)]
            n_entries = int(rng.integers(1, 7))
            mem = EpisodicMemory(capacity=8, memory_heads=heads, tokens_per_frame=S)
            stored = [random_slots(rng, heads=heads, idx=3 * i) for i in range(n_entries)]
            for i, slots in enumerate(stored):
                mem.try_admit(slots, 3 * i, i + 1, tau_novel=2.0,
                              prompt_keys=zero_prompt_keys(heads))
            cand = random_slots(rng, heads=heads, idx=99)
            expected = brute_force_novelty(cand, [e.slots for e in mem.entries])
            assert mem.novelty_score(cand) == pytest.approx(expected, abs=1e-12)


class TestLatentMetric:
    def test_latent_novelty_uses_frame_latents(self):
        rng = np.random.default_rng(23)
        mem = EpisodicMemory(capacity=5, memory_heads=HEADS2, tokens_per_frame=S,
                             novelty_metric="latent")
        lat = rng.standard_normal((S, 8))
        mem.try_admit(random_slots(rng, idx=0), 0, 1, tau_novel=2.0,
                      prompt_keys=zero_prompt_keys(), latent=lat)
        dup_lat = lat.copy()
        score = mem.novelty_score(random_slots(rng, idx=3), latent=dup_lat)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_latent_metric_requires_latent(self):
        rng = np.random.default_rng(24)
        mem = EpisodicMemory(capacity=5, memory_heads=HEADS2, tokens_per_frame=S,
                             novelty_metric="latent")
        mem.try_admit(random_slots(rng, idx=0), 0, 1, tau_novel=2.0,
                      prompt_keys=zero_prompt_keys(), latent=rng.standard_normal((S, 8)))
        with pytest.raises(ConfigError):
            mem.novelty_score(random_slots(rng, idx=3))


class TestCachedPooledKeys:
    """Pooled keys are cached on each FrameKV and provenance is built on first
    read; after a rollout that compresses every block, both must still equal
    what they would be if computed afresh."""

    @pytest.fixture(scope="class")
    def churned(self, toy_config, toy_weights, rope, toy_role_map):
        from headkv.reference import FrameArchive
        from headkv.rollout import HeadWiseHyper, HeadWiseStrategy, generate_rollout

        strategy = HeadWiseStrategy(toy_config, toy_weights, toy_role_map,
                                    HeadWiseHyper(update_interval=1))
        record = generate_rollout(toy_weights, toy_config, rope, strategy,
                                  [("churn prompt", 1)], 16, keep_records=True)
        assert sum(d.compressed for d in record.admissions) >= 5
        return strategy.episodic, record, FrameArchive.from_record(record)

    def test_cached_pooled_key_equals_fresh_mean(self, churned):
        mem, _, _ = churned
        assert mem.summary_present and len(mem.entries) == mem.capacity
        for entry in mem.entries:
            for fr in entry.slots.values():
                pooled, norm = fr.pooled_key
                assert pooled.tobytes() == fr.keys.mean(axis=0).tobytes()
                assert norm == float(np.linalg.norm(fr.keys.mean(axis=0)))

    def test_novelty_matches_brute_force(self, churned):
        mem, record, _ = churned
        last = record.blocks[-1].layer_records
        cand = {(l, h): last[l].frames[h][0] for (l, h) in mem.memory_heads}
        # scored twice: the second call reads the candidate's cached pooled keys
        for _ in range(2):
            expected = brute_force_novelty(cand, [e.slots for e in mem.entries])
            assert mem.novelty_score(cand) == pytest.approx(expected, abs=1e-12)

    def test_plain_frame_provenance_is_identity(self, churned):
        mem, _, _ = churned
        fr = mem.entries[-1].slots[mem.memory_heads[0]]
        assert not fr.is_summary
        np.testing.assert_array_equal(fr.provenance[:, 0], np.full(fr.tokens, fr.global_frame_index))
        np.testing.assert_array_equal(fr.provenance[:, 1], np.arange(fr.tokens))

    def test_summary_provenance_points_at_merged_rows(self, churned):
        mem, _, archive = churned
        for lh, fr in mem.entries[0].slots.items():
            assert fr.is_summary
            for row, (frame, token) in enumerate(fr.provenance):
                assert fr.keys[row].tobytes() == archive.keys[lh][frame][token].tobytes()
                assert fr.values[row].tobytes() == archive.values[lh][frame][token].tobytes()
