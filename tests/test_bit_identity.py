"""The hot path's numpy forms against the plain forms they stand for, with
exact equality: the batched projections, the stacked episodic pooling and
scores, the stacked compression ranking, softmax_rows' reductions and its
in-place form, apply_rope's in-place form, packing and scoring into a reused
workspace with each head's keys rotated where they are packed, the temporal
rotations served as views of one power-of-two prefix rotation and
profiling's archive of keys rotated once per committed block, in place."""

import gc
import math
import weakref

import numpy as np
import pytest

from headkv import assembly, profiling, tensor_ops
from headkv.cache import FrameKV
from headkv.episodic import EpisodicEntry, EpisodicMemory, _similarities
from headkv.model import ModelConfig, block_input, init_model, measurement_perturbation
from headkv.profiling import bucket_proportions, profile_rollout
from headkv.rollout import HeadWiseHyper, HeadWiseStrategy, RolloutEngine, WindowStrategy
from headkv.errors import ShapeError
from headkv.tensor_ops import (
    TEMPORAL,
    RopeParams,
    Rotation,
    frame_rotation,
    rope_rotation,
    softmax_rows,
)
from helpers import encoded_keys, encoded_values, root

MID = ModelConfig(L=4, H=8, d=32, s=64, f=3, grid_h=8, grid_w=8, seed=0)


class TestProjection:
    @pytest.mark.parametrize("grid", ["toy", "mid"])
    def test_layer_product_slices_equal_per_head_products(self, grid, toy_config, toy_weights):
        cfg, weights = (toy_config, toy_weights) if grid == "toy" else (MID, init_model(MID))
        hidden = block_input(weights, "a prompt", 4)
        for w in (weights.wq, weights.wk, weights.wv):
            for l in range(cfg.L):
                per_layer = np.matmul(hidden, w[l])
                for h in range(cfg.H):
                    assert np.array_equal(per_layer[h], hidden @ w[l, h])

    def test_first_layer_values_in_the_block_are_the_per_head_products(self, toy_config, toy_weights,
                                                                      rope, toy_role_map):
        cfg = toy_config
        engine = RolloutEngine(toy_weights, cfg, rope, HeadWiseStrategy(cfg, toy_weights, toy_role_map))
        block = engine.step(1, "a prompt")
        hidden = block_input(toy_weights, "a prompt", 1)
        for h in range(cfg.H):
            v = hidden @ toy_weights.wv[0, h]
            for t, frame in enumerate(block.kv):
                assert frame[(0, h)].values.tobytes() == v[t * cfg.s:(t + 1) * cfg.s].tobytes()


class TestSoftmaxRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_the_method_wrapper_form(self, dtype):
        rng = np.random.default_rng(0)
        for shape in [(1, 1), (3, 7), (48, 176), (192, 448)]:
            m = (rng.standard_normal(shape) * 8).astype(dtype)
            want = m - m.max(axis=1, keepdims=True)
            np.exp(want, out=want)
            want /= want.sum(axis=1, keepdims=True)
            got = softmax_rows(m)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_equals_the_new_buffer_form(self, dtype):
        rng = np.random.default_rng(1)
        for shape in [(1, 1), (3, 7), (48, 176), (192, 704)]:
            m = (rng.standard_normal(shape) * 8).astype(dtype)
            want = softmax_rows(m)
            scratch = m.copy()
            got = softmax_rows(scratch, out=scratch)
            assert got is scratch and got.tobytes() == want.tobytes()


# (query rows, head dim, key rows tried) of one head on the toy and mid grids
ATTENTION_SHAPES = {"toy": (48, 16, (48, 176, 400)), "mid": (192, 32, (192, 704, 1472))}


def packed_heads(rng, q_rows, d, key_rows):
    """Encoded sequences of random frames of q_rows / 3 tokens, one per
    key-row count (layer 0, heads in order, keys at frames 0..F-1), and a
    query matrix for each."""
    rope = RopeParams.default_for(d)
    s = q_rows // 3
    encoded = []
    for h, n in enumerate(key_rows):
        frames = [FrameKV(keys=rng.standard_normal((s, d)) * 3, values=rng.standard_normal((s, d)),
                          global_frame_index=t) for t in range(n // s)]
        idx = tuple(range(len(frames)))
        encoded.append(assembly.EncodedSequence(
            layer=0, head=h, frames=frames, key_frame_indices=idx, query_frame_indices=idx[-3:],
            key_rotation=frame_rotation(idx, s, rope), query_rotation=frame_rotation(idx[-3:], s, rope)))
    return encoded, [rng.standard_normal((q_rows, d)) * 3 for _ in key_rows]


class TestAttentionWorkspace:
    """`pack` writes into a reused workspace, and `packed_attention` scores
    into it with `np.matmul(..., out=)` and an in-place softmax."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("grid", ["toy", "mid"])
    def test_scores_into_a_larger_buffer_equal_the_new_product(self, grid, dtype):
        rng = np.random.default_rng(2)
        q_rows, d, key_rows = ATTENTION_SHAPES[grid]
        for k_rows in key_rows:
            q = (rng.standard_normal((q_rows, d)) * 3).astype(dtype)
            k = (rng.standard_normal((k_rows, d)) * 3).astype(dtype)
            want = q @ k.T
            for start in (0, 1, 3, k_rows * d):
                flat = np.full(start + 2 * q_rows * k_rows, np.nan, dtype=dtype)
                out = flat[start:start + q_rows * k_rows].reshape(q_rows, k_rows)
                assert np.matmul(q, k.T, out=out) is out
                assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pack_into_a_workspace_equals_the_concatenate_and_cast_form(self, dtype):
        rng = np.random.default_rng(3)
        workspace = assembly.Workspace()
        for q_rows, d, key_rows in ATTENTION_SHAPES.values():
            encoded, queries = packed_heads(rng, q_rows, d, key_rows)
            got = assembly.pack(encoded, queries, dtype, workspace)
            for flat, want in ((got.keys, np.concatenate([encoded_keys(e, dtype) for e in encoded])),
                               (got.values, np.concatenate([encoded_values(e) for e in encoded]).astype(dtype)),
                               (got.queries, np.concatenate(queries).astype(dtype))):
                assert flat.dtype == want.dtype and flat.shape == want.shape
                assert flat.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", ["toy", "mid"])
    def test_in_place_key_rotation_equals_concatenate_rotate_concatenate(self, grid):
        """Float64 keys rotated where `pack` lays them out hold the bits of
        the former path: each head's frames concatenated, rotated into a new
        array, and the rotated heads concatenated."""
        rng = np.random.default_rng(8)
        encoded, queries = packed_heads(rng, *ATTENTION_SHAPES[grid])
        want = np.concatenate([encoded_keys(e) for e in encoded])
        for workspace in (None, assembly.Workspace()):
            assert assembly.pack(encoded, queries, np.float64, workspace).keys.tobytes() == want.tobytes()

    def test_float32_after_float64_on_one_workspace(self):
        rng = np.random.default_rng(4)
        encoded, queries = packed_heads(rng, *ATTENTION_SHAPES["mid"])
        workspace = assembly.Workspace()
        wide = assembly.pack(encoded, queries, np.float64, workspace)
        narrow = assembly.pack(encoded, queries, np.float32, workspace)
        fresh = assembly.pack(encoded, queries, np.float32)
        parts = {"keys": [encoded_keys(e) for e in encoded], "values": [encoded_values(e) for e in encoded],
                 "queries": queries}
        for name, arrays in parts.items():
            assert getattr(narrow, name).tobytes() == getattr(fresh, name).tobytes()
            # each dtype has its own storage, so the float32 pack left these intact
            assert getattr(wide, name).tobytes() == np.concatenate(arrays).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("grid", ["toy", "mid"])
    def test_packed_attention_equals_the_per_head_new_buffer_form(self, grid, dtype):
        rng = np.random.default_rng(5)
        q_rows, d, key_rows = ATTENTION_SHAPES[grid]
        encoded, queries = packed_heads(rng, q_rows, d, key_rows)
        buffer = assembly.pack(encoded, queries, dtype, assembly.Workspace())
        for enc, q, got in zip(encoded, queries, assembly.packed_attention(buffer)):
            k, v = encoded_keys(enc, dtype), encoded_values(enc).astype(dtype)
            scores = q.astype(dtype) @ k.T
            scores *= 1.0 / np.sqrt(d)
            assert got.tobytes() == (softmax_rows(scores) @ v).tobytes()


class TestRopeInPlace:
    """`apply_rope(x, rot, out=x)` rotates x where it lies, with the bits of
    the new-array form."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("grid", ["toy", "mid"])
    def test_in_place_on_views_of_a_larger_flat_equals_the_new_array(self, grid, dtype):
        rng = np.random.default_rng(9)
        q_rows, d, key_rows = ATTENTION_SHAPES[grid]
        rope = RopeParams.default_for(d)
        s = q_rows // 3
        grid_side = int(math.isqrt(s))
        spatial = rope_rotation(np.tile(tensor_ops.grid_positions(grid_side, grid_side), (3, 1)), rope,
                                tensor_ops.SPATIAL_AXES)
        rotations = [spatial] + [frame_rotation(tuple(range(n // s)), s, rope) for n in key_rows] + \
                    [frame_rotation((4, 9, 10), s, rope)]
        for rot in rotations:
            x = (rng.standard_normal((rot.tokens, d)) * 3).astype(dtype)
            want = tensor_ops.apply_rope(x, rot)
            assert want is not x and want.tobytes() != x.tobytes()
            # even and odd element offsets, and one past a whole matrix
            for start in (0, 1, 2, 3, rot.tokens * d):
                flat = np.full(start + 2 * rot.tokens * d, np.nan, dtype=dtype)
                view = flat[start:start + rot.tokens * d].reshape(rot.tokens, d)
                view[...] = x
                assert tensor_ops.apply_rope(view, rot, out=view) is view
                assert view.tobytes() == want.tobytes()
                assert np.isnan(flat[:start]).all() and np.isnan(flat[start + x.size:]).all()
                other = np.empty_like(x)
                assert tensor_ops.apply_rope(x, rot, out=other) is other
                assert other.tobytes() == want.tobytes()

    def test_out_of_another_shape_or_dtype_or_layout_is_refused(self):
        rope = RopeParams.default_for(8)
        rot = frame_rotation((0, 1), 2, rope)
        x = np.ones((4, 8))
        for out in (np.empty((4, 6)), np.empty((4, 8), dtype=np.float32), np.empty((8, 4)).T):
            with pytest.raises(ShapeError):
                tensor_ops.apply_rope(x, rot, out=out)

    def test_step_rotates_its_own_projections(self, toy_config, toy_weights, rope, toy_role_map):
        """The engine rotates the layer's q and k products in place: every
        head's queries and frame keys hold the bits of the new-array rotation
        of its own product."""
        cfg = toy_config
        engine = RolloutEngine(toy_weights, cfg, rope, HeadWiseStrategy(cfg, toy_weights, toy_role_map))
        block = engine.step(1, "a prompt")
        hidden = block_input(toy_weights, "a prompt", 1)
        for h in range(cfg.H):
            q = tensor_ops.apply_rope(hidden @ toy_weights.wq[0, h], engine._spatial)
            k = tensor_ops.apply_rope(hidden @ toy_weights.wk[0, h], engine._spatial)
            assert block.q_spatial[(0, h)].tobytes() == q.tobytes()
            for t, frame in enumerate(block.kv):
                assert frame[(0, h)].keys.tobytes() == k[t * cfg.s:(t + 1) * cfg.s].tobytes()


HEADS = [(0, 1), (0, 3), (1, 0), (2, 2), (2, 5)]
S, D = 8, 16


def pooled_reference(frame: FrameKV) -> tuple[np.ndarray, float]:
    vec = frame.keys.mean(axis=0)
    return vec, float(np.linalg.norm(vec))


def similarity_reference(a, b, heads) -> float:
    """Mean over heads of np.dot / (norm * norm), 0 where a norm is 0."""
    sims = []
    for lh in heads:
        (va, na), (vb, nb) = pooled_reference(a[lh]), pooled_reference(b[lh])
        sims.append(0.0 if na == 0.0 or nb == 0.0 else float(np.dot(va, vb) / (na * nb)))
    return sum(sims) / len(sims)


def zero_mean_keys(rng) -> np.ndarray:
    """Rows x1, -x1, x2, -x2, ...: summed in order they cancel exactly, so
    the pooled key and its norm are 0."""
    half = rng.standard_normal((S // 2, D))
    return np.stack([half, -half], axis=1).reshape(S, D)


def random_slots(rng, idx, zero_head=None):
    return {lh: FrameKV(keys=zero_mean_keys(rng) if lh == zero_head else rng.standard_normal((S, D)),
                        values=rng.standard_normal((S, D)), global_frame_index=idx)
            for lh in HEADS}


class TestEpisodicScores:
    @pytest.fixture
    def memory(self):
        rng = np.random.default_rng(7)
        mem = EpisodicMemory(capacity=6, memory_heads=list(HEADS))
        for n in range(5):
            mem.entries.append(EpisodicEntry(slots=random_slots(rng, 3 * n, HEADS[2] if n == 1 else None)))
        return mem, random_slots(rng, 99, HEADS[2])

    def test_pooled_key_is_the_mean_and_its_norm(self, memory):
        mem, candidate = memory
        for entry in mem.entries + [EpisodicEntry(slots=candidate)]:
            means, norms, _ = mem._entry_pool(entry)
            for row, lh in enumerate(HEADS):
                want_vec, want_norm = pooled_reference(entry.slots[lh])
                assert means[row].tobytes() == want_vec.tobytes() and norms[row] == want_norm

    @pytest.mark.parametrize("s", [4, 16, 64])
    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_stacked_pooling_equals_the_per_frame_form(self, s, d):
        rng = np.random.default_rng(s * 100 + d)
        mem = EpisodicMemory(capacity=2, memory_heads=list(HEADS))
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(10):
                slots = {lh: FrameKV(keys=rng.standard_normal((s, d)) * scale,
                                     values=np.zeros((s, d)), global_frame_index=0)
                         for lh in HEADS}
                means, norms, nonzero = mem._entry_pool(EpisodicEntry(slots=slots))
                for row, lh in enumerate(HEADS):
                    want = slots[lh].keys.mean(axis=0)
                    assert means[row].tobytes() == want.tobytes()
                    assert norms[row] == np.linalg.norm(want) and nonzero[row]

    def test_novelty_equals_the_per_head_mean(self, memory):
        mem, candidate = memory
        want = max(similarity_reference(candidate, e.slots, HEADS) for e in mem.entries)
        assert mem.novelty_score(EpisodicEntry(slots=candidate)) == want

    def test_every_pair_score_equals_the_per_head_mean(self, memory):
        mem, _ = memory
        pools = [mem._entry_pool(e) for e in mem.entries]
        pairs = [(i, j) for i in range(len(pools)) for j in range(len(pools))]
        got = _similarities([pools[i] for i, _ in pairs], [pools[j] for _, j in pairs])
        want = [similarity_reference(mem.entries[i].slots, mem.entries[j].slots, HEADS) for i, j in pairs]
        assert got == want
        assert pooled_reference(mem.entries[1].slots[HEADS[2]])[1] == 0.0     # a zero-norm head is scored

    def test_pair_and_victim_follow_the_per_head_scores(self, memory):
        mem, _ = memory
        n = len(mem.entries)
        sims = {(i, j): similarity_reference(mem.entries[i].slots, mem.entries[j].slots, HEADS)
                for i in range(n) for j in range(i + 1, n)}
        assert mem.find_redundant_pair() == max(sims, key=lambda ij: (sims[ij], -ij[0], -ij[1]))

        # the same keys as summary frames at -1
        mem.entries[0] = EpisodicEntry(slots={lh: FrameKV(keys=fr.keys, values=fr.values, global_frame_index=-1)
                                              for lh, fr in mem.entries[0].slots.items()})
        assert mem.summary_present
        scores = []
        for idx in range(1, n):
            near = [sims[(k, k + 1)] for k in (idx - 1, idx) if 1 <= k < n - 1]
            scores.append(sum(near) / len(near))
        assert mem.select_merge_victim() == 1 + scores.index(max(scores))

    def test_pooled_arrays_die_with_a_merged_entry(self):
        rng = np.random.default_rng(3)
        mem = EpisodicMemory(capacity=2, memory_heads=list(HEADS))
        keys = {lh: np.ones(D) for lh in HEADS}
        for n in range(2):
            mem.try_admit(random_slots(rng, 3 * n), n + 1, tau_novel=2.0, prompt_keys=keys)
        # builds both entries' pooled arrays
        mem.novelty_score(EpisodicEntry(slots=random_slots(rng, 90)))
        entries = [weakref.ref(e) for e in mem.entries]
        arrays = [[weakref.ref(arr) for arr in e.pooled] for e in mem.entries]
        mem.try_admit(random_slots(rng, 6), 3, tau_novel=2.0, prompt_keys=keys)
        assert mem.summary_present and len(mem.entries) == 2
        gc.collect()
        assert any(entry() is None for entry in entries)   # the merge dropped at least one
        for entry, refs in zip(entries, arrays):
            assert all((ref() is None) == (entry() is None) for ref in refs)
        mem.entries.clear()
        gc.collect()
        assert all(ref() is None for refs in arrays for ref in refs)


def compress_reference(mem: EpisodicMemory, first: EpisodicEntry, second: EpisodicEntry, prompt_keys):
    """One layer at a time, one head at a time: row-norm cosines against the
    head's prompt key summed over the layer's heads, a stable ranking, and
    per-head gathers of keys, values and provenance."""
    s = first.slots[mem.memory_heads[0]].tokens
    out = {}
    for l in sorted({l for l, _ in mem.memory_heads}):
        heads = [lh for lh in mem.memory_heads if lh[0] == l]
        r = np.zeros(2 * s)
        for lh in heads:
            cat = np.vstack([first.slots[lh].keys, second.slots[lh].keys])
            pk = np.asarray(prompt_keys[lh])
            denom = np.linalg.norm(cat, axis=1) * float(np.linalg.norm(pk))
            r += np.where(denom > 0.0, cat @ pk / np.where(denom == 0.0, 1.0, denom), 0.0)
        r /= len(heads)
        order = np.argsort(-r, kind="stable")[:s]
        for lh in heads:
            a, b = first.slots[lh], second.slots[lh]
            out[lh] = tuple(np.vstack([x, y])[order] for x, y in
                            ((a.keys, b.keys), (a.values, b.values), (a.provenance, b.provenance)))
    return out


class TestCompression:
    @pytest.mark.parametrize("heads", [HEADS, [(2, 5), (0, 3), (1, 0), (0, 1), (2, 2)]],
                             ids=["layer_order", "interleaved_layers"])
    def test_stacked_ranking_equals_the_per_head_loop(self, heads):
        rng = np.random.default_rng(11)
        mem = EpisodicMemory(capacity=3, memory_heads=list(heads))
        entries = [EpisodicEntry(slots=random_slots(rng, 3 * n))
                   for n in range(3)]
        entries[1].slots[heads[0]].keys[2] = 0.0                        # a zero key row
        prompt_keys = {lh: rng.standard_normal(D) for lh in heads}
        prompt_keys[heads[1]] = np.zeros(D)                             # a zero prompt key
        summary = mem.compress_into_summary(entries[0], entries[1], prompt_keys)
        # a second merge ranks a summary, whose provenance is not the identity
        for first, second in ((entries[0], entries[1]), (summary, entries[2])):
            got = mem.compress_into_summary(first, second, prompt_keys).slots
            want = compress_reference(mem, first, second, prompt_keys)
            assert list(got) == list(want)
            for lh, (keys, values, prov) in want.items():
                fr = got[lh]
                assert fr.keys.tobytes() == keys.tobytes()
                assert fr.values.tobytes() == values.tobytes()
                assert fr.provenance.tobytes() == prov.tobytes()


def direct_rotation(frame_indices, s, rope) -> Rotation:
    positions = np.zeros((len(frame_indices) * s, 3), dtype=np.int64)
    positions[:, 0] = np.repeat(np.asarray(frame_indices, dtype=np.int64), s)
    return rope_rotation(positions, rope, (TEMPORAL,))


def same_rotation(a: Rotation, b: Rotation) -> bool:
    return (a.d, a.tokens) == (b.d, b.tokens) and len(a.runs) == len(b.runs) and all(
        fa == fb and ra.tobytes() == rb.tobytes() for (fa, ra), (fb, rb) in zip(a.runs, b.runs))


class TestPrefixRotations:
    def test_prefix_rows_equal_a_direct_build(self):
        rope = RopeParams.default_for(16)
        tensor_ops.frame_rotation.cache_clear()
        # grow, shrink, grow past a power of two, switch the token count and back
        for n, s in [(4, 16), (7, 16), (3, 16), (11, 16), (17, 16), (2, 4), (40, 16), (1, 16)]:
            idx = tuple(range(n))
            rot = frame_rotation(idx, s, rope)
            assert same_rotation(rot, direct_rotation(idx, s, rope))
            assert all(not rows.flags.writeable for _, rows in rot.runs)
        # index tuples that are not prefixes are built as they are
        for idx in [(1, 2, 3), (0, 2), (0, 5, 6, 7), (3,)]:
            assert same_rotation(frame_rotation(idx, 16, rope), direct_rotation(idx, 16, rope))

    def test_held_prefix_survives_a_replaced_rotation(self):
        """A prefix rotation handed out keeps its rows, byte for byte and
        read-only, after the shared power-of-two rotation it views is
        replaced by a longer prefix, another token count or another rope split."""
        rope = RopeParams.default_for(16)
        tensor_ops.frame_rotation.cache_clear()
        held = []
        # 32 frames of 16 tokens and 128 frames of 4 fill rotations of equal
        # shape, and so do the two rope bases: a replacement must not reuse rows
        for n, s, params in [(8, 16, rope), (16, 16, rope), (32, 16, rope), (100, 4, rope),
                             (100, 4, RopeParams(8, 4, 4, base=500.0)), (5, 4, RopeParams(12, 2, 2))]:
            held.append((tuple(range(n)), s, params, frame_rotation(tuple(range(n)), s, params)))
            tensor_ops.frame_rotation.cache_clear()     # the next call replaces the shared rotation
            for idx, s_held, p_held, rot in held:
                assert same_rotation(rot, direct_rotation(idx, s_held, p_held))
                for _, rows in rot.runs:
                    assert not rows.flags.writeable
                    with pytest.raises(ValueError):
                        rows[0, 0] = 1.0
        # each held rotation views its own power-of-two rotation
        assert len({id(root(rows)) for *_, rot in held for _, rows in rot.runs}) == len(held)

    def test_unbounded_latents_equal_direct_rotations(self, toy_config, toy_weights, rope, monkeypatch):
        def latents():
            engine = RolloutEngine(toy_weights, toy_config, rope, WindowStrategy(toy_config, None))
            out = []
            for i in range(1, 13):
                block = engine.step(i, "p")
                engine.commit(block, "p")
                out.append(np.vstack(block.frames).tobytes())
            return out

        grown = latents()
        monkeypatch.setattr(assembly, "frame_rotation", direct_rotation)
        assert latents() == grown

    def test_unbounded_rollout_holds_one_grown_rotation(self, rope):
        """After 256 unbounded blocks on the toy grid (one layer of two heads,
        since rotations depend on the grid and the rope split only) the live
        temporal rotations hold the rows of one rotation grown to the next
        power of two frames, plus the few query rotations the cache keeps:
        not a rotation per step."""
        cfg = ModelConfig(L=1, H=2, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=3)
        weights = init_model(cfg)
        # start from an empty cache and, by asking for another token count, a
        # prefix rotation the rollout cannot use
        tensor_ops.frame_rotation.cache_clear()
        frame_rotation((0,), 1, rope)
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, Rotation)]   # held, so ids stay unique
        known = {id(o) for o in before}
        engine = RolloutEngine(weights, cfg, rope, WindowStrategy(cfg, None))
        n_blocks = 256
        for i in range(1, n_blocks + 1):
            engine.commit(engine.step(i, "p"), "p")
        gc.collect()
        roots = {}
        for rot in gc.get_objects():
            if isinstance(rot, Rotation) and id(rot) not in known:
                for _, rows in rot.runs:
                    base = root(rows)
                    roots[id(base)] = base.nbytes
        frames = cfg.f * n_blocks
        row_bytes = (rope.d_t // 2) * 16                               # complex128 per temporal pair
        grown = (1 << (frames - 1).bit_length()) * cfg.s * row_bytes
        spatial = cfg.f * cfg.s * (rope.d_h + rope.d_w) // 2 * 16
        queries = tensor_ops.frame_rotation.cache_info().maxsize * cfg.f * cfg.s * row_bytes
        assert sum(roots.values()) <= grown + queries + spatial
        assert max(roots.values()) == grown
        del before


def profile_full_history(weights, config, rope, sampled_blocks, repeats, prompts, perturb_offset):
    """profile_rollout's means as every sample's full spatial-key history,
    concatenated and rotated at frames 0..f*i-1 in one piece."""
    f, s = config.f, config.s
    sampled = sorted(set(sampled_blocks))
    sums = np.zeros((config.L, config.H, 3))
    count = 0
    for prompt in prompts:
        engine = RolloutEngine(weights, config, rope, WindowStrategy(config, window=8, n_sink=1))
        history: list[dict] = []
        for i in range(1, max(sampled) + 1):
            block = engine.step(i, prompt)
            if i in sampled:
                for r in range(repeats):
                    stream = perturb_offset + r
                    probe = block if stream == 0 else engine.step(
                        i, prompt, perturb=measurement_perturbation(config, i, stream))
                    q_rot = frame_rotation(tuple(range(f * (i - 1), f * i)), s, rope)
                    key_rot = frame_rotation(tuple(range(f * i)), s, rope)
                    for (l, h), q in probe.q_spatial.items():
                        keys = np.concatenate([frame[(l, h)].keys for frame in history + probe.kv])
                        k_enc = tensor_ops.apply_rope(keys, key_rot)
                        q_enc = tensor_ops.apply_rope(q, q_rot)
                        sums[l, h] += bucket_proportions(
                            softmax_rows(q_enc @ k_enc.T / math.sqrt(config.d)), s, i).as_tuple()
                count += repeats
            engine.commit(block, prompt)
            history += block.kv
    return sums / count


class TestProfileArchive:
    def test_in_place_archive_rows_equal_the_assigned_rotation(self, toy_config, toy_weights, rope):
        """`_archive_keys` concatenates and rotates into the archive rows
        themselves, with the bits of assigning a new rotated array to them."""
        cfg = toy_config
        f, s, n_blocks = cfg.f, cfg.s, 5
        engine = RolloutEngine(toy_weights, cfg, rope, WindowStrategy(cfg, window=8, n_sink=1))
        got, want = (np.full((cfg.L, cfg.H, n_blocks * f * s, cfg.d), np.nan) for _ in range(2))
        for i in range(1, n_blocks + 1):
            block = engine.step(i, "p")
            profiling._archive_keys(got, block, cfg, rope)
            rot = frame_rotation(tuple(range(f * (i - 1), f * i)), s, rope)
            for l, h in cfg.heads:
                want[l, h, f * (i - 1) * s:f * i * s] = tensor_ops.apply_rope(
                    np.concatenate([frame[(l, h)].keys for frame in block.kv]), rot)
            engine.commit(block, "p")
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("perturb_offset", [0, 1])
    def test_means_equal_the_full_history_rotation(self, perturb_offset, toy_config, toy_weights, rope):
        """Offset 0 measures each block as generated, then once perturbed;
        offset 1 perturbs every probe, so each sampled block's rows are
        written again with its committed keys before later blocks read them."""
        args = (toy_weights, toy_config, rope, [3, 4, 7], 2, ["first prompt", "second prompt"])
        got = profile_rollout(*args, window=8, n_sink=1, perturb_offset=perturb_offset).means
        assert got.tobytes() == profile_full_history(*args, perturb_offset).tobytes()
