import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headkv.assembly import (
    Workspace,
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
from headkv.rollout import HeadWiseHyper, HeadWiseStrategy, RolloutEngine
from headkv.tensor_ops import TEMPORAL, RopeParams, frame_rotation, rope_rotation
from helpers import attention, encoded_keys, encoded_values, key_token_temporal, run_with_retention

D = 8
ROPE8 = RopeParams.default_for(8)


def frame(idx: int, s: int = 4, d: int = D, seed: int | None = None) -> FrameKV:
    rng = np.random.default_rng(idx if seed is None else seed)
    return FrameKV(keys=rng.standard_normal((s, d)), values=rng.standard_normal((s, d)),
                   global_frame_index=idx)


def context(n_history=2, f=3, s=4):
    """n_history history frames, then f current ones, at indices 0.."""
    return [frame(i, s=s) for i in range(n_history + f)]


def assembled(layer=0, head=0, n_history=2, f=3, s=4):
    frames = context(n_history, f, s)
    return assemble(layer, head, frames, f, reencode_temporal(frames), ROPE8)


class TestAssemble:
    def test_current_only(self):
        frames = [frame(0), frame(1), frame(2)]
        enc = assemble(0, 0, frames, 3, encode_temporal(frames), ROPE8)
        assert enc.frame_count == 3
        assert enc.frames == frames
        assert enc.query_frame_indices == enc.key_frame_indices == (0, 1, 2)

    @pytest.mark.parametrize("f_current", [0, 2])
    def test_requires_current_block(self, f_current):
        with pytest.raises(ShapeError):
            assemble(0, 0, [frame(0)], f_current, (0,), ROPE8)

    def test_mixed_token_counts_raise(self):
        frames = [frame(0, s=2), frame(1), frame(2), frame(3)]
        with pytest.raises(ShapeError):
            assemble(0, 0, frames, 3, reencode_temporal(frames), ROPE8)

    @pytest.mark.parametrize("key_frame_indices", [(0, 1, 2), (0, 1, 2, 3, 4), ()])
    def test_one_index_per_frame_required(self, key_frame_indices):
        with pytest.raises(ShapeError, match="key frame indices"):
            assemble(0, 0, context(n_history=1), 3, key_frame_indices, ROPE8)


class TestReencodeTemporal:
    def test_contiguous_indices_f4(self):
        enc = assembled(n_history=1, f=3)  # F = 4
        np.testing.assert_array_equal(enc.key_frame_indices, [0, 1, 2, 3])
        np.testing.assert_array_equal(enc.query_frame_indices, [1, 2, 3])

    @pytest.mark.parametrize("encode", [encode_temporal, reencode_temporal])
    def test_assembling_twice_is_idempotent(self, encode):
        """Assembly only looks rotations up and leaves the frames alone, so a
        second assembly of one context gives equal indices and the same
        cached rotation objects."""
        frames = [frame(10), frame(11), frame(12), frame(13), frame(14)]
        before = [fr.keys.tobytes() for fr in frames]
        first, second = (assemble(0, 0, frames, 3, encode(frames), ROPE8) for _ in range(2))
        assert first.key_frame_indices == second.key_frame_indices
        assert first.query_frame_indices == second.query_frame_indices
        assert first.key_rotation is second.key_rotation
        assert first.query_rotation is second.query_rotation
        assert [fr.keys.tobytes() for fr in frames] == before

    def test_spatial_channels_untouched(self):
        enc = assembled(n_history=2)
        raw = np.vstack([fr.keys for fr in enc.frames])
        np.testing.assert_array_equal(encoded_keys(enc)[:, ROPE8.d_t:], raw[:, ROPE8.d_t:])
        assert not np.array_equal(encoded_keys(enc)[:, :ROPE8.d_t], raw[:, :ROPE8.d_t])

    def test_matches_scalar_rotation_oracle(self):
        enc = assembled(n_history=3)
        raw = np.vstack([fr.keys for fr in enc.frames])
        expected = rotate_temporal_rows(raw, key_token_temporal(enc), ROPE8)
        np.testing.assert_allclose(encoded_keys(enc), expected, atol=1e-12)

    def test_explicit_global_indices(self):
        frames = [frame(10), frame(11), frame(12), frame(13), frame(14)]
        enc = assemble(0, 0, frames, 3, encode_temporal(frames), ROPE8)
        np.testing.assert_array_equal(enc.key_frame_indices, [10, 11, 12, 13, 14])
        np.testing.assert_array_equal(enc.query_frame_indices, [12, 13, 14])


# sink-plus-recent index lists: a few leading frames, a gap, then a recent run
# (repeats allowed), or arbitrary indices up to 5000
sink_recent = st.builds(
    lambda sink, start, n: sink + list(range(start, start + n)),
    st.lists(st.integers(0, 5), max_size=3), st.integers(0, 4990), st.integers(1, 8))
frame_indices = st.one_of(sink_recent, st.lists(st.integers(0, 5000), min_size=1, max_size=10))


class TestEncodeTemporalAnyIndices:
    @settings(max_examples=40, deadline=None)
    @given(key_idx=frame_indices, n_query=st.integers(1, 3), s=st.integers(1, 4),
           seed=st.integers(0, 2**31 - 1))
    def test_rotated_keys_match_scalar_oracle(self, key_idx, n_query, s, seed):
        n_query = min(n_query, len(key_idx))
        rng = np.random.default_rng(seed)
        frames = [frame(i, s=s, seed=int(rng.integers(1 << 30))) for i in key_idx]
        enc = assemble(0, 0, frames, n_query, encode_temporal(frames), ROPE8)
        raw = np.vstack([fr.keys for fr in frames])
        expected = rotate_temporal_rows(raw, np.repeat(key_idx, s), ROPE8)
        np.testing.assert_allclose(encoded_keys(enc), expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(enc.key_frame_indices, key_idx)

    @settings(max_examples=40, deadline=None)
    @given(idx=frame_indices, s=st.integers(1, 4))
    def test_frame_rotation_is_rope_rotation_at_repeated_positions(self, idx, s):
        rot = frame_rotation(tuple(idx), s, ROPE8)
        pos = np.zeros((len(idx) * s, 3), dtype=np.int64)
        pos[:, 0] = np.repeat(idx, s)
        direct = rope_rotation(pos, ROPE8, (TEMPORAL,))
        assert (rot.d, rot.tokens) == (direct.d, direct.tokens)
        assert [(first, rows.tobytes()) for first, rows in rot.runs] == \
               [(first, rows.tobytes()) for first, rows in direct.runs]
        assert frame_rotation(tuple(idx), s, ROPE8) is rot


def spans(lengths) -> list[tuple[int, int]]:
    """(start, end) of every head's span, read from a length table alone."""
    ends = np.cumsum(lengths)
    return list(zip((ends - lengths).tolist(), ends.tolist()))


def encoded_head(layer, head, n_history, f=3, s=4, seed=0):
    rng = np.random.default_rng(seed)
    frames = [frame(i, s=s, seed=int(rng.integers(1 << 30))) for i in range(n_history + f)]
    enc = assemble(layer, head, frames, f, reencode_temporal(frames), ROPE8)
    q = rng.standard_normal((f * s, D))
    return enc, q


class TestPack:
    def test_single_head_offsets(self):
        enc, q = encoded_head(0, 0, n_history=1)
        buf = pack([enc], [q])
        assert spans(buf.k_lengths) == [(0, 4 * 4)]  # F=4 frames of s=4 tokens
        assert spans(buf.q_lengths) == [(0, 3 * 4)]

    def test_prefix_sum_offsets(self):
        s = 4
        encs, qs = [], []
        for h, n_hist in enumerate((1, 4, 8)):  # F = 4, 7, 11
            enc, q = encoded_head(0, h, n_history=n_hist, seed=h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        assert spans(buf.k_lengths) == [(0, 4 * s), (4 * s, 11 * s), (11 * s, 22 * s)]
        assert buf.keys.shape[0] == 22 * s

    def test_round_trip_token_identical(self):
        encs, qs = [], []
        for h in range(5):
            enc, q = encoded_head(0, h, n_history=h, seed=10 + h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        for enc, q, (k0, k1), (q0, q1) in zip(encs, qs, spans(buf.k_lengths), spans(buf.q_lengths),
                                              strict=True):
            np.testing.assert_array_equal(buf.keys[k0:k1], encoded_keys(enc))
            np.testing.assert_array_equal(buf.values[k0:k1], encoded_values(enc))
            np.testing.assert_array_equal(buf.queries[q0:q1], q)

    def test_assembly_and_packing_leave_the_cached_frames_as_they_were(self):
        """Assembly keeps the frames without copying them, and `pack` rotates
        the keys in its own buffer: the frames keep their spatial-only keys,
        and the buffer shares no memory with them."""
        frames = context(n_history=3)
        enc = assemble(0, 0, frames, 3, reencode_temporal(frames), ROPE8)
        assert len(enc.frames) == len(frames) and all(a is b for a, b in zip(enc.frames, frames))
        q = np.random.default_rng(7).standard_normal((3 * 4, D))
        before = [(fr.keys.tobytes(), fr.values.tobytes()) for fr in enc.frames]
        buf = pack([enc], [q])
        assert [(fr.keys.tobytes(), fr.values.tobytes()) for fr in enc.frames] == before
        assert buf.keys.tobytes() != np.concatenate([fr.keys for fr in enc.frames]).tobytes()
        for fr in enc.frames:
            assert not np.may_share_memory(fr.keys, buf.keys) and not np.may_share_memory(fr.values, buf.values)

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
        np.testing.assert_allclose(out, attention(q, encoded_keys(enc), encoded_values(enc)), atol=0)

    def test_mixed_lengths_match_per_head_oracle(self):
        encs, qs = [], []
        for h in range(12):
            enc, q = encoded_head(0, h, n_history=h % 9, seed=30 + h)
            encs.append(enc)
            qs.append(q)
        buf = pack(encs, qs)
        outs = packed_attention(buf)
        for enc, q, out in zip(encs, qs, outs):
            ref = attention_rows(q, encoded_keys(enc), encoded_values(enc))
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_history_equals_within_block(self):
        enc, q = encoded_head(0, 0, n_history=0, seed=4)
        buf = pack([enc], [q])
        out = packed_attention(buf)[0]
        np.testing.assert_allclose(out, attention_rows(q, encoded_keys(enc), encoded_values(enc)), atol=1e-12)

    def test_outputs_outlive_the_next_pack_into_the_workspace(self):
        workspace = Workspace()
        packs = []
        for n_history in ((1, 4, 8), (8, 2, 5, 3)):
            packs.append(tuple(zip(*(encoded_head(0, h, n, seed=60 + 10 * len(packs) + h)
                                     for h, n in enumerate(n_history)))))
        first = packed_attention(pack(*packs[0], workspace=workspace))
        kept = [out.copy() for out in first]
        flat = workspace._flats[np.dtype(np.float64)]
        second = pack(*packs[1], workspace=workspace)
        assert workspace._flats[np.dtype(np.float64)] is flat     # written over, not regrown
        packed_attention(second)
        for out, want in zip(first, kept):
            assert not np.may_share_memory(out, flat)
            assert out.tobytes() == want.tobytes()

    def test_small_score_scratch_detected(self):
        enc, q = encoded_head(0, 0, n_history=1, seed=6)
        buf = pack([enc], [q])
        buf.scores = buf.scores[:-1]
        with pytest.raises(IntegrityError):
            packed_attention(buf)

    @pytest.mark.parametrize("table", ["k_lengths", "q_lengths"])
    def test_length_table_one_head_short_detected(self, table):
        encs, qs = zip(*(encoded_head(0, h, n_history=1, seed=40 + h) for h in range(3)))
        buf = pack(encs, qs)
        setattr(buf, table, getattr(buf, table)[:-1])
        with pytest.raises(IntegrityError, match="length table does not match head count"):
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
    engine = RolloutEngine(weights, cfg, RopeParams.default_for(8), strategy)
    retention = [step for _, step in run_with_retention(engine, 500, [("sweep", 1)])]
    return cfg, role_map, retention


class TestRolloutFrameCounts:
    """Steady-state assembled lengths per role on a live rollout."""

    def test_memory_head_first_block_f_frames(self, retention_run):
        cfg, role_map, retention = retention_run
        snap = retention[0][(1, 2)]  # a memory head at block 1
        assert snap.key_token_temporal.max() == cfg.f - 1

    def test_local_head_capacity_independent_of_block(self, retention_run):
        cfg, role_map, retention = retention_run
        from headkv.roles import HeadRole

        local_head = role_map.heads_of(HeadRole.LOCAL)[0]
        for step in retention[5:]:
            snap = step[local_head]
            # F = f + 1 regardless of how far the rollout has run
            assert snap.key_token_temporal.max() == cfg.f
            assert len(np.unique(snap.key_token_temporal)) == cfg.f + 1

    def test_long_rollout_temporal_indices_bounded(self, retention_run):
        cfg, role_map, retention = retention_run
        caps = {"local": cfg.f + 1, "anchor": 2 * cfg.f + 1, "memory": 5 + 3 + cfg.f}
        for step in retention:
            for (l, h), snap in step.items():
                cap = caps[role_map.role(l, h).value]
                assert snap.key_token_temporal.max() < cap
                assert snap.query_frame_indices.max() < cap
