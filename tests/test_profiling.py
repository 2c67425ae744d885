import math
import tracemalloc

import numpy as np
import pytest

from headkv.errors import ConfigError, ShapeError
from headkv.profiling import (
    BucketProportions,
    ProfileReport,
    bucket_proportions,
    classify_heads,
    core_stability_ratio,
    profile_rollout,
    round_half_up,
)
from headkv.roles import HeadRole, role_map_from_lists


def bucket_double_loop(a: np.ndarray, s: int, i: int, f: int = 3):
    """Index-set oracle: walk every cell and add it to its bucket."""
    sink = middle = current = 0.0
    for m in range(a.shape[0]):
        for n in range(a.shape[1]):
            if n < s:
                sink += a[m, n]
            elif n < (f * i - f) * s:
                middle += a[m, n]
            else:
                current += a[m, n]
    norm = 1.0 / (f * s)
    return (sink * norm, middle * norm, current * norm)


def row_stochastic(rng, rows, cols):
    a = rng.random((rows, cols))
    return a / a.sum(axis=1, keepdims=True)


class TestBucketProportions:
    def test_uniform_map_matches_bucket_widths(self):
        # i=3, s=2: widths are 1, 3i-4=5, and 3 frames of 3i=9 total
        s, i = 2, 3
        a = np.full((3 * s, 3 * i * s), 1.0 / (3 * i * s))
        p = bucket_proportions(a, s, i)
        assert p.as_tuple() == pytest.approx((1 / 9, 5 / 9, 3 / 9), abs=1e-12)

    def test_all_mass_in_current(self):
        s, i = 2, 4
        a = np.zeros((3 * s, 3 * i * s))
        a[:, -3 * s:] = 1.0 / (3 * s)
        p = bucket_proportions(a, s, i)
        assert p.as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        s, i = 3, 4
        a = row_stochastic(rng, 3 * s, 3 * i * s)
        p = bucket_proportions(a, s, i)
        assert p.as_tuple() == pytest.approx(bucket_double_loop(a, s, i), abs=1e-13)

    def test_sums_to_one_for_stochastic_rows(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            s = int(rng.integers(1, 5))
            i = int(rng.integers(2, 7))
            a = row_stochastic(rng, 3 * s, 3 * i * s)
            p = bucket_proportions(a, s, i)
            assert abs(sum(p.as_tuple()) - 1.0) < 1e-9

    def test_early_block_rejected(self):
        with pytest.raises(ConfigError):
            bucket_proportions(np.zeros((3, 3)), 1, 1)

    def test_frames_per_block_read_from_rows(self):
        # f=2, s=2, i=3: widths are 1 frame, 2i-3=3 frames and f=2 frames
        s, i = 2, 3
        a = np.full((2 * s, 2 * i * s), 1.0 / (2 * i * s))
        p = bucket_proportions(a, s, i)
        assert p.as_tuple() == pytest.approx((1 / 6, 3 / 6, 2 / 6), abs=1e-12)

    def test_shape_validated(self):
        # s=2, i=3: the rows must be a positive multiple of s, f = rows // s,
        # and the columns f*i*s
        for shape in [(6, 17), (5, 15), (1, 3), (0, 0), (18,)]:
            with pytest.raises(ShapeError):
                bucket_proportions(np.zeros(shape), 2, 3)

    def test_proportions_validated(self):
        with pytest.raises(ShapeError):
            BucketProportions(0.5, 0.4, 0.3)

    @pytest.mark.parametrize("props", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
                                       (math.nan, math.nan, math.nan)], ids=repr)
    def test_nan_proportions_refused(self, props):
        with pytest.raises(ShapeError):
            BucketProportions(*props)


def synthetic_report(layers, heads, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.random((layers, heads, 3))
    means = raw / raw.sum(axis=2, keepdims=True)
    return ProfileReport(layers=layers, heads=heads, means=means)


class TestClassifyHeads:
    def test_full_scale_counts(self):
        report = synthetic_report(30, 12, seed=3)
        role_map = classify_heads(report, alpha_anchor=0.25, tau_local=0.20)
        counts = role_map.counts()
        assert counts[HeadRole.ANCHOR] == 90
        assert counts[HeadRole.LOCAL] == 72
        assert counts[HeadRole.MEMORY] == 198

    def test_identical_stats_tie_break_lexicographic(self):
        means = np.full((4, 6, 3), 1.0 / 3.0)
        report = ProfileReport(layers=4, heads=6, means=means)
        role_map = classify_heads(report, 0.25, 0.20)
        all_heads = [(l, h) for l in range(4) for h in range(6)]
        assert role_map.heads_of(HeadRole.ANCHOR) == all_heads[:6]
        assert role_map.heads_of(HeadRole.LOCAL) == all_heads[6:11]

    def test_hand_built_twelve_head_report(self):
        # 1x12 grid; alpha=0.25 -> 3 anchors, tau=0.25 -> 3 locals
        means = np.zeros((1, 12, 3))
        sink = [0.9, 0.8, 0.7, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        current = [0.05, 0.1, 0.2, 0.8, 0.7, 0.6, 0.3, 0.2, 0.2, 0.1, 0.1, 0.1]
        for h in range(12):
            means[0, h] = [sink[h], 1.0 - sink[h] - current[h], current[h]]
        report = ProfileReport(layers=1, heads=12, means=means)
        role_map = classify_heads(report, 0.25, 0.25)
        assert role_map.heads_of(HeadRole.ANCHOR) == [(0, 0), (0, 1), (0, 2)]
        assert role_map.heads_of(HeadRole.LOCAL) == [(0, 3), (0, 4), (0, 5)]
        assert len(role_map.heads_of(HeadRole.MEMORY)) == 6

    def test_round_half_up_counts(self):
        # 24 heads, alpha 0.25 -> 6, tau 0.20 -> 4.8 rounds up to 5
        report = synthetic_report(4, 6, seed=4)
        counts = classify_heads(report, 0.25, 0.20).counts()
        assert (counts[HeadRole.ANCHOR], counts[HeadRole.LOCAL], counts[HeadRole.MEMORY]) == (6, 5, 13)

    def test_partition_property(self):
        report = synthetic_report(5, 7, seed=5)
        for alpha, tau in ((0.1, 0.1), (0.3, 0.25), (0.45, 0.5)):
            role_map = classify_heads(report, alpha, tau)
            counts = role_map.counts()
            assert sum(counts.values()) == 35
            assert counts[HeadRole.ANCHOR] == round_half_up(alpha * 35)
            assert counts[HeadRole.LOCAL] == round_half_up(tau * 35)

    def test_pure_function(self):
        report = synthetic_report(3, 4, seed=6)
        a = classify_heads(report, 0.25, 0.2)
        b = classify_heads(report, 0.25, 0.2)
        assert a.roles == b.roles

    def test_threshold_sum_validated(self):
        report = synthetic_report(2, 2, seed=7)
        with pytest.raises(ConfigError):
            classify_heads(report, 0.6, 0.4)
        with pytest.raises(ConfigError):
            classify_heads(report, 0.0, 0.2)


class TestCoreStabilityRatio:
    def _map(self, anchors, locals_, layers=2, heads=6):
        return role_map_from_lists(layers, heads, anchor=anchors, local=locals_)

    def test_identical_maps_are_fully_stable(self):
        m = self._map([(0, 0), (0, 1)], [(1, 0)])
        report = core_stability_ratio([m, m, m, m])
        assert report.s_anchor == report.s_local == report.s_memory == 1.0
        assert report.s_avg == 1.0

    def test_disjoint_anchor_sets_score_zero(self):
        a = self._map([(0, 0), (0, 1)], [])
        b = self._map([(1, 0), (1, 1)], [])
        report = core_stability_ratio([a, b])
        assert report.s_anchor == 0.0

    def test_matches_set_arithmetic_on_perturbed_runs(self):
        rng = np.random.default_rng(8)
        layers, heads = 5, 8
        all_heads = [(l, h) for l in range(layers) for h in range(heads)]
        base_anchor = all_heads[:10]
        base_local = all_heads[10:18]
        maps = []
        for _ in range(4):
            anchor = list(base_anchor)
            local = list(base_local)
            if rng.random() < 0.9:  # ~10% membership churn
                anchor[rng.integers(len(anchor))] = all_heads[18 + int(rng.integers(10))]
            maps.append(self._map(anchor, local, layers, heads))
        report = core_stability_ratio(maps)
        for role in HeadRole:
            sets = [set(m.heads_of(role)) for m in maps]
            expected = len(set.intersection(*sets)) / (sum(len(s) for s in sets) / 4)
            assert report.for_role(role) == pytest.approx(expected, abs=1e-15)
        assert report.s_avg == pytest.approx(
            (report.s_anchor + report.s_local + report.s_memory) / 3, abs=1e-15)

    def test_bounds(self):
        a = self._map([(0, 0), (0, 1)], [(1, 0)])
        b = self._map([(0, 0), (1, 1)], [(1, 0)])
        report = core_stability_ratio([a, b])
        for role in HeadRole:
            assert 0.0 <= report.for_role(role) <= 1.0

    def test_mismatched_grids_rejected(self):
        a = self._map([(0, 0)], [])
        b = role_map_from_lists(3, 6, anchor=[(0, 0)], local=[])
        with pytest.raises(ConfigError):
            core_stability_ratio([a, b])

    def test_needs_two_runs(self):
        with pytest.raises(ConfigError):
            core_stability_ratio([self._map([(0, 0)], [])])


class TestProfileRollout:
    def test_single_sample_equals_direct_measurement(self, toy_weights, toy_config, rope):
        report = profile_rollout(toy_weights, toy_config, rope, sampled_blocks=[3],
                                 repeats=1, prompts=["solo"], window=8, n_sink=1)
        expected = measure_block_direct(toy_weights, toy_config, rope, "solo", 3)
        np.testing.assert_allclose(report.means, expected, atol=1e-12)

    def test_identical_prompts_identical_statistics(self, toy_weights, toy_config, rope):
        one = profile_rollout(toy_weights, toy_config, rope, [3], 1, ["same"], window=8)
        two = profile_rollout(toy_weights, toy_config, rope, [3], 1, ["same", "same"], window=8)
        np.testing.assert_allclose(one.means, two.means, atol=1e-13)

    def test_mean_of_individual_measurements(self, toy_weights, toy_config, rope):
        blocks = [3, 4, 5]
        prompts = ["p one", "p two"]
        combined = profile_rollout(toy_weights, toy_config, rope, blocks, 1, prompts, window=8)
        singles = [
            profile_rollout(toy_weights, toy_config, rope, [b], 1, [p], window=8).means
            for p in prompts for b in blocks
        ]
        np.testing.assert_allclose(combined.means, np.mean(singles, axis=0), atol=1e-12)

    def test_repeats_change_statistics(self, toy_weights, toy_config, rope):
        one = profile_rollout(toy_weights, toy_config, rope, [3], 1, ["r"], window=8)
        three = profile_rollout(toy_weights, toy_config, rope, [3], 3, ["r"], window=8)
        assert not np.allclose(one.means, three.means)

    def test_early_blocks_rejected(self, toy_weights, toy_config, rope):
        with pytest.raises(ConfigError):
            profile_rollout(toy_weights, toy_config, rope, [2], 1, ["x"], window=8)

    def test_perturbed_probes_equal_direct_measurement(self, toy_weights, toy_config, rope):
        """Offset 1 measures only perturbed probes; block 5 reads block 3's
        rows, which must hold the committed keys, not the probe's."""
        report = profile_rollout(toy_weights, toy_config, rope, sampled_blocks=[3, 5],
                                 repeats=1, prompts=["solo"], window=8, n_sink=1, perturb_offset=1)
        expected = [measure_block_direct(toy_weights, toy_config, rope, "solo", b, stream=1) for b in (3, 5)]
        np.testing.assert_allclose(report.means, np.mean(expected, axis=0), atol=1e-12)

    def test_prompts_share_one_archive(self, toy_weights, toy_config, rope):
        """A second prompt reuses the call's key archive (30 blocks, 4.4 MB on
        the toy grid): a fresh one per prompt would hold two at once and
        raise the traced peak by over a quarter."""
        def peak(prompts):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                profile_rollout(toy_weights, toy_config, rope, [3, 30], 1, prompts, window=8)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        profile_rollout(toy_weights, toy_config, rope, [3, 30], 1, ["warm"], window=8)   # fills the caches
        one, two = peak(["p one"]), peak(["p one", "p two"])
        assert two <= 1.05 * one

    def test_report_proportions_valid(self, toy_weights, toy_config, rope):
        report = profile_rollout(toy_weights, toy_config, rope, [3, 5], 1, ["v"], window=8)
        for l in range(toy_config.L):
            for h in range(toy_config.H):
                p = report.proportions(l, h)
                assert abs(sum(p.as_tuple()) - 1.0) < 1e-9


def measure_block_direct(weights, config, rope, prompt, block_idx, stream=0):
    """Independent single-block measurement: run the windowed rollout, archive
    spatial keys, and build each head's full-context map with the scalar
    rotation oracle. A non-zero stream measures block_idx re-run under that
    stream's input perturbation (scale 0.05) against the same cache state."""
    import math

    from headkv.model import measurement_perturbation
    from headkv.reference import rotate_temporal_rows
    from headkv.rollout import RolloutEngine, WindowStrategy

    strategy = WindowStrategy(config, window=8, n_sink=1)
    engine = RolloutEngine(weights, config, rope, strategy)
    archive = {lh: [] for lh in config.heads}
    means = np.zeros((config.L, config.H, 3))
    for i in range(1, block_idx + 1):
        block = engine.step(i, prompt)
        if i == block_idx:
            f, s = config.f, config.s
            probe = block if stream == 0 else engine.step(
                i, prompt, perturb=measurement_perturbation(config, i, stream))
            q_t = np.repeat(np.arange(f * (i - 1), f * i, dtype=np.int64), s)
            key_t = np.repeat(np.arange(f * i, dtype=np.int64), s)
            for (l, h), q in probe.q_spatial.items():
                ks = archive[(l, h)] + [frame[(l, h)].keys for frame in probe.kv]
                k_enc = rotate_temporal_rows(np.vstack(ks), key_t, rope)
                q_enc = rotate_temporal_rows(q, q_t, rope)
                scores = q_enc @ k_enc.T / math.sqrt(config.d)
                shifted = scores - scores.max(axis=1, keepdims=True)
                e = np.exp(shifted)
                a = e / e.sum(axis=1, keepdims=True)
                means[l, h] = bucket_double_loop(a, s, i, f=f)
        engine.commit(block, prompt)
        for frame in block.kv:
            for lh, fr in frame.items():
                archive[lh].append(fr.keys)
    return means
