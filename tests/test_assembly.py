import numpy as np
import pytest

from headkv.assembly import (
    assemble,
    encode_temporal,
    pack,
    packed_attention,
    reencode_temporal,
)
from headkv.cache import FrameKV
from headkv.errors import IntegrityError, ShapeError
from headkv.model import ModelConfig, init_model
from headkv.reference import attention_rows, rotate_temporal_rows
from headkv.roles import role_map_from_lists
from headkv.rollout import HeadWiseHyper, HeadWiseStrategy, generate_rollout
from headkv.tensor_ops import RopeParams

D = 8
ROPE8 = RopeParams.default_for(8)


def frame(idx: int, s: int = 4, d: int = D, seed: int | None = None) -> FrameKV:
    rng = np.random.default_rng(idx if seed is None else seed)
    pos = np.column_stack((np.arange(s) // 2, np.arange(s) % 2)).astype(np.int64)
    return FrameKV(keys=rng.standard_normal((s, d)), values=rng.standard_normal((s, d)),
                   spatial_positions=pos, global_frame_index=idx)


def assembled(layer=0, head=0, n_history=2, f=3, s=4):
    history = [frame(i, s=s) for i in range(n_history)]
    current = [frame(n_history + t, s=s) for t in range(f)]
    return assemble(layer, head, history, current)


class TestAssemble:
    def test_current_only(self):
        seq = assemble(0, 0, [], [frame(0), frame(1), frame(2)])
        assert seq.frame_count == 3
        assert seq.f_current == 3

    def test_requires_current_block(self):
        with pytest.raises(ShapeError):
            assemble(0, 0, [frame(0)], [])

    def test_token_count_sums_frames(self):
        seq = assembled(n_history=3)
        assert seq.token_count == 6 * 4


class TestReencodeTemporal:
    def test_contiguous_indices_f4(self):
        seq = assembled(n_history=1, f=3)  # F = 4
        enc = reencode_temporal(seq, ROPE8)
        np.testing.assert_array_equal(enc.key_frame_indices, [0, 1, 2, 3])
        np.testing.assert_array_equal(enc.query_frame_indices, [1, 2, 3])

    def test_double_rotation_detected(self):
        seq = assembled()
        reencode_temporal(seq, ROPE8)
        with pytest.raises(IntegrityError):
            reencode_temporal(seq, ROPE8)

    def test_spatial_channels_untouched(self):
        seq = assembled(n_history=2)
        raw = np.vstack([fr.keys for fr in seq.frames])
        enc = reencode_temporal(seq, ROPE8)
        np.testing.assert_array_equal(enc.keys[:, ROPE8.d_t:], raw[:, ROPE8.d_t:])
        assert not np.array_equal(enc.keys[:, :ROPE8.d_t], raw[:, :ROPE8.d_t])

    def test_matches_scalar_rotation_oracle(self):
        seq = assembled(n_history=3)
        raw = np.vstack([fr.keys for fr in seq.frames])
        enc = reencode_temporal(seq, ROPE8)
        expected = rotate_temporal_rows(raw, enc.key_token_temporal, ROPE8)
        np.testing.assert_allclose(enc.keys, expected, atol=1e-12)

    def test_explicit_global_indices(self):
        seq = assembled(n_history=2, f=3)
        enc = encode_temporal(seq, ROPE8, [10, 11, 12, 13, 14], [12, 13, 14])
        np.testing.assert_array_equal(enc.key_frame_indices, [10, 11, 12, 13, 14])

    def test_index_count_validated(self):
        seq = assembled(n_history=2, f=3)
        with pytest.raises(ShapeError):
            encode_temporal(seq, ROPE8, [0, 1], [2, 3, 4])


def encoded_head(layer, head, n_history, f=3, s=4, seed=0):
    rng = np.random.default_rng(seed)
    history = [frame(i, s=s, seed=int(rng.integers(1 << 30))) for i in range(n_history)]
    current = [frame(n_history + t, s=s, seed=int(rng.integers(1 << 30))) for t in range(f)]
    seq = assemble(layer, head, history, current)
    enc = reencode_temporal(seq, ROPE8)
    q = rng.standard_normal((f * s, D))
    return enc, q


class TestPack:
    def test_single_head_offsets(self):
        enc, q = encoded_head(0, 0, n_history=1)
        buf = pack([enc], [q])
        np.testing.assert_array_equal(buf.k_offsets, [0])
        assert buf.k_lengths[0] == 4 * 4  # F=4 frames of s=4 tokens

    def test_prefix_sum_offsets(self):
        s = 4
        encs, qs = [], []
        for h, n_hist in enumerate((1, 4, 8)):  # F = 4, 7, 11
            enc, q = encoded_head(0, h, n_history=n_hist, seed=h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        np.testing.assert_array_equal(buf.k_offsets, [0, 4 * s, 11 * s])
        assert buf.keys.shape[0] == 22 * s

    def test_round_trip_token_identical(self):
        encs, qs = [], []
        for h in range(5):
            enc, q = encoded_head(0, h, n_history=h, seed=10 + h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        for idx, enc in enumerate(encs):
            q_got, k_got, v_got = buf.head_slice(idx)
            np.testing.assert_array_equal(k_got, enc.keys)
            np.testing.assert_array_equal(v_got, enc.values)
            np.testing.assert_array_equal(q_got, qs[idx])

    def test_order_enforced(self):
        enc0, q0 = encoded_head(0, 1, 1, seed=1)
        enc1, q1 = encoded_head(0, 0, 1, seed=2)
        with pytest.raises(ShapeError):
            pack([enc0, enc1], [q0, q1])


class TestPackedAttention:
    def test_single_head_equals_direct(self):
        enc, q = encoded_head(0, 0, n_history=2, seed=3)
        buf = pack([enc], [q])
        out = packed_attention(buf)[0]
        from headkv.tensor_ops import attention

        np.testing.assert_allclose(out, attention(q, enc.keys, enc.values), atol=0)

    def test_mixed_lengths_match_per_head_oracle(self):
        encs, qs = [], []
        for h in range(12):
            enc, q = encoded_head(0, h, n_history=h % 9, seed=30 + h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        outs = packed_attention(buf)
        for enc, q, out in zip(encs, qs, outs):
            ref = attention_rows(q, enc.keys, enc.values)
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_history_equals_within_block(self):
        enc, q = encoded_head(0, 0, n_history=0, seed=4)
        buf = pack([enc], [q])
        out = packed_attention(buf)[0]
        np.testing.assert_allclose(out, attention_rows(q, enc.keys, enc.values), atol=1e-12)

    def test_corrupted_offsets_detected(self):
        encs, qs = [], []
        for h in range(3):
            enc, q = encoded_head(0, h, n_history=1, seed=40 + h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        buf.k_offsets = buf.k_offsets.copy()
        buf.k_offsets[1] += 2
        with pytest.raises(IntegrityError):
            packed_attention(buf)

    def test_truncated_flat_detected(self):
        enc, q = encoded_head(0, 0, n_history=1, seed=5)
        buf = pack([enc], [q])
        buf.keys = buf.keys[:-1]
        with pytest.raises(IntegrityError):
            packed_attention(buf)


@pytest.fixture(scope="module")
def retention_run():
    cfg = ModelConfig(L=2, H=3, d=8, s=4, f=3, grid_h=2, grid_w=2, seed=1)
    weights = init_model(cfg)
    heads = cfg.heads
    role_map = role_map_from_lists(cfg.L, cfg.H, anchor=heads[:1], local=heads[1:2])
    strategy = HeadWiseStrategy(cfg, weights, role_map, HeadWiseHyper())
    record = generate_rollout(weights, cfg, RopeParams.default_for(8), strategy,
                              [("sweep", 1)], 500, record_retention=True)
    return cfg, role_map, record


class TestRolloutFrameCounts:
    """Steady-state assembled lengths per role on a live rollout."""

    def test_memory_head_first_block_f_frames(self, retention_run):
        cfg, role_map, record = retention_run
        snap = record.retention[0][(1, 2)]  # a memory head at block 1
        assert snap.key_token_temporal.max() == cfg.f - 1

    def test_local_head_capacity_independent_of_block(self, retention_run):
        cfg, role_map, record = retention_run
        from headkv.roles import HeadRole

        local_head = role_map.heads_of(HeadRole.LOCAL)[0]
        for step in record.retention[5:]:
            snap = step[local_head]
            # F = f + 1 regardless of how far the rollout has run
            assert snap.key_token_temporal.max() == cfg.f
            assert len(np.unique(snap.key_token_temporal)) == cfg.f + 1

    def test_long_rollout_temporal_indices_bounded(self, retention_run):
        cfg, role_map, record = retention_run
        caps = {"local": cfg.f + 1, "anchor": 2 * cfg.f + 1, "memory": 5 + 3 + cfg.f}
        for step in record.retention:
            for (l, h), snap in step.items():
                cap = caps[role_map.role(l, h).value]
                assert snap.key_token_temporal.max() < cap
                assert snap.query_frame_indices.max() < cap
