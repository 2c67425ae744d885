import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headkv.errors import ShapeError
from headkv.tensor_ops import (
    ALL_AXES,
    HEIGHT,
    SPATIAL_AXES,
    TEMPORAL,
    WIDTH,
    RopeParams,
    apply_rope,
    frame_rotation,
    grid_positions,
    rope_rotation,
    rope_table,
    softmax_rows,
)
from helpers import attention


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_two_entry_row(self):
        out = softmax_rows(np.array([[math.log(3.0), 0.0]]))
        np.testing.assert_allclose(out, [[0.75, 0.25]], atol=1e-15)

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 7)) * 10
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert (out >= 0).all()

    def test_large_values_do_not_overflow(self):
        out = softmax_rows(np.array([[1000.0, 999.0]]))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_input_left_unchanged(self, dtype):
        m = (np.random.default_rng(8).standard_normal((4, 9)) * 5).astype(dtype)
        before = m.copy()
        out = softmax_rows(m)
        np.testing.assert_array_equal(m, before)
        assert out.dtype == dtype and not np.shares_memory(out, m)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_property_rows_sum_to_one(self, rows, cols, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols)) * 50
        out = softmax_rows(m)
        assert out.shape == m.shape
        np.testing.assert_allclose(out.sum(axis=1), np.ones(rows), atol=1e-12)


def attention_triple_loop(q, k, v):
    """Independent scalar reference for the attention formula."""
    m, d = q.shape
    n, dv = v.shape
    out = np.zeros((m, dv))
    for r in range(m):
        scores = []
        for j in range(n):
            acc = 0.0
            for c in range(d):
                acc += q[r, c] * k[j, c]
            scores.append(acc / math.sqrt(d))
        mx = max(scores)
        ws = [math.exp(x - mx) for x in scores]
        total = sum(ws)
        for j in range(n):
            wgt = ws[j] / total
            for c in range(dv):
                out[r, c] += wgt * v[j, c]
    return out


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 5))
        out = attention(q, k, v)
        np.testing.assert_allclose(out, np.repeat(v, 4, axis=0), atol=1e-15)

    def test_equal_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((2, 3))
        k = np.repeat(rng.standard_normal((1, 3)), 6, axis=0)
        v = rng.standard_normal((6, 3))
        out = attention(q, k, v)
        np.testing.assert_allclose(out, np.repeat(v.mean(axis=0)[None, :], 2, axis=0), atol=1e-12)

    def test_matches_triple_loop_reference(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        np.testing.assert_allclose(attention(q, k, v), attention_triple_loop(q, k, v), atol=1e-12)

    def test_single_precision_tolerance(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out32 = attention(q.astype(np.float32), k.astype(np.float32), v.astype(np.float32))
        np.testing.assert_allclose(out32, attention_triple_loop(q, k, v), atol=1e-5)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 3)))


class TestRopeParams:
    def test_default_split(self):
        p = RopeParams.default_for(16)
        assert (p.d_t, p.d_h, p.d_w) == (8, 4, 4)

    def test_default_requires_multiple_of_four(self):
        with pytest.raises(ShapeError):
            RopeParams.default_for(6)

    def test_odd_group_rejected(self):
        with pytest.raises(ShapeError):
            RopeParams(d_t=3, d_h=2, d_w=2)

    def test_base_must_exceed_one(self):
        with pytest.raises(ShapeError):
            RopeParams(d_t=4, d_h=2, d_w=2, base=1.0)


class TestApplyRope:
    rope = RopeParams.default_for(16)

    def _tokens(self, n=5, seed=0):
        return np.random.default_rng(seed).standard_normal((n, 16))

    def _positions(self, n, t=0, h=0, w=0):
        return np.tile(np.array([[t, h, w]], dtype=np.int64), (n, 1))

    def test_zero_positions_identity(self):
        x = self._tokens()
        out = apply_rope(x, rope_rotation(self._positions(5), self.rope, ALL_AXES))
        np.testing.assert_array_equal(out, x)

    def test_spatial_axes_leave_temporal_block_untouched(self):
        x = self._tokens()
        pos = self._positions(5, t=7, h=2, w=3)
        out = apply_rope(x, rope_rotation(pos, self.rope, SPATIAL_AXES))
        np.testing.assert_array_equal(out[:, :8], x[:, :8])
        assert not np.array_equal(out[:, 8:], x[:, 8:])

    def test_norm_preserved(self):
        x = self._tokens()
        pos = self._positions(5, t=11, h=3, w=1)
        out = apply_rope(x, rope_rotation(pos, self.rope))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-12)

    def test_relative_position_property(self):
        """Temporal-block dot products depend only on the index difference."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 16))
        y = rng.standard_normal((1, 16))
        for p in range(0, 9, 2):
            for k in range(0, 9, 3):
                for c in (1, 3, 8):
                    xa = apply_rope(x, rope_rotation(self._positions(1, t=p), self.rope, (TEMPORAL,)))
                    ya = apply_rope(y, rope_rotation(self._positions(1, t=k), self.rope, (TEMPORAL,)))
                    xb = apply_rope(x, rope_rotation(self._positions(1, t=p + c), self.rope, (TEMPORAL,)))
                    yb = apply_rope(y, rope_rotation(self._positions(1, t=k + c), self.rope, (TEMPORAL,)))
                    lhs = (xa[:, :8] @ ya[:, :8].T).item()
                    rhs = (xb[:, :8] @ yb[:, :8].T).item()
                    assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 200),
           st.sampled_from([TEMPORAL, HEIGHT, WIDTH]), st.integers(0, 2**31 - 1))
    def test_property_relative_position_any_axis(self, p, k, c, axis, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 16))
        y = rng.standard_normal((1, 16))
        sl = {TEMPORAL: slice(0, 8), HEIGHT: slice(8, 12), WIDTH: slice(12, 16)}[axis]
        col = {TEMPORAL: 0, HEIGHT: 1, WIDTH: 2}[axis]

        def pos(val):
            out = np.zeros((1, 3), dtype=np.int64)
            out[0, col] = val
            return out

        xa = apply_rope(x, rope_rotation(pos(p), self.rope, (axis,)))
        ya = apply_rope(y, rope_rotation(pos(k), self.rope, (axis,)))
        xb = apply_rope(x, rope_rotation(pos(p + c), self.rope, (axis,)))
        yb = apply_rope(y, rope_rotation(pos(k + c), self.rope, (axis,)))
        lhs = (xa[:, sl] @ ya[:, sl].T).item()
        rhs = (xb[:, sl] @ yb[:, sl].T).item()
        assert abs(lhs - rhs) < 1e-8

    def test_axis_composition_matches_single_call(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 16))
        pos = np.column_stack((rng.integers(0, 9, 7), rng.integers(0, 4, 7), rng.integers(0, 4, 7)))
        staged = apply_rope(apply_rope(x, rope_rotation(pos, self.rope, (TEMPORAL,))),
                            rope_rotation(pos, self.rope, SPATIAL_AXES))
        single = apply_rope(x, rope_rotation(pos, self.rope, ALL_AXES))
        np.testing.assert_allclose(staged, single, atol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            apply_rope(self._tokens(5), rope_rotation(self._positions(4), self.rope))

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            apply_rope(self._tokens(5), rope_rotation(self._positions(5), RopeParams.default_for(8)))

    def test_unknown_axis_raises(self):
        with pytest.raises(ShapeError):
            apply_rope(self._tokens(2), rope_rotation(self._positions(2), self.rope, ("sideways",)))


class TestRotation:
    """A rotation is built once and applied many times; building must not
    change a single bit of the result."""

    rope = RopeParams.default_for(16)
    # axis set -> runs: adjacent selected groups share one run
    RUNS = {(TEMPORAL,): 1, (HEIGHT,): 1, (WIDTH,): 1, SPATIAL_AXES: 1, ALL_AXES: 1, (TEMPORAL, WIDTH): 2}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000)),
                    min_size=1, max_size=12),
           st.sampled_from(list(RUNS)), st.sampled_from([np.float64, np.float32]),
           st.integers(0, 2**31 - 1))
    def test_merged_run_equals_axis_by_axis(self, positions, axes, dtype, seed):
        pos = np.array(positions, dtype=np.int64)
        x = np.random.default_rng(seed).standard_normal((len(pos), 16)).astype(dtype)
        merged = rope_rotation(pos, self.rope, axes)
        assert len(merged.runs) == self.RUNS[axes]
        staged = x
        for axis in axes:
            staged = apply_rope(staged, rope_rotation(pos, self.rope, (axis,)))
        out = apply_rope(x, merged)
        assert out.dtype == x.dtype
        assert out.tobytes() == staged.tobytes()

    def test_frame_rotation_is_cached_temporal_rotation(self):
        rot = frame_rotation((3, 4, 5, 6), 5, self.rope)
        pos = np.zeros((20, 3), dtype=np.int64)
        pos[:, 0] = np.repeat(np.arange(3, 7), 5)
        direct = rope_rotation(pos, self.rope, (TEMPORAL,))
        assert (rot.d, rot.tokens) == (direct.d, direct.tokens) == (16, 20)
        assert [(first, rows.tobytes()) for first, rows in rot.runs] == \
               [(first, rows.tobytes()) for first, rows in direct.runs]
        x = np.random.default_rng(8).standard_normal((20, 16))
        assert apply_rope(x, rot).tobytes() == apply_rope(x, direct).tobytes()
        assert frame_rotation((3, 4, 5, 6), 5, self.rope) is rot
        for _, rows in rot.runs:
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0


def rope_direct(x: np.ndarray, pos: np.ndarray, rope: RopeParams, axes) -> np.ndarray:
    """Per-element rotation with math.cos/math.sin: each axis group rotates
    pairs (2j, 2j+1) by position * base**(-2j / d_axis)."""
    out = np.array(x, dtype=np.float64, copy=True)
    start = 0
    for axis, width, col in ((TEMPORAL, rope.d_t, 0), (HEIGHT, rope.d_h, 1), (WIDTH, rope.d_w, 2)):
        if axis in axes:
            for r in range(x.shape[0]):
                for j in range(width // 2):
                    angle = int(pos[r, col]) * rope.base ** (-2.0 * j / width)
                    c, s = math.cos(angle), math.sin(angle)
                    a, b = x[r, start + 2 * j], x[r, start + 2 * j + 1]
                    out[r, start + 2 * j] = a * c - b * s
                    out[r, start + 2 * j + 1] = a * s + b * c
        start += width
    return out


class TestRopeTables:
    """apply_rope reads rotations from cached tables that grow in powers of two;
    these checks compare it with the formula itself, independent of the
    tables (reference.py rotates spatial channels through apply_rope)."""

    rope = RopeParams.default_for(16)
    # on both sides of table-size boundaries (powers of two)
    POSITIONS = [0, 1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 32, 63, 64, 255, 256, 1023, 1024,
                 4095, 4096, 5003]

    def _case(self, seed=0):
        n = len(self.POSITIONS)
        p = np.array(self.POSITIONS, dtype=np.int64)
        pos = np.column_stack((p, p[::-1], np.roll(p, 5)))
        return np.random.default_rng(seed).standard_normal((n, 16)), pos

    @pytest.mark.parametrize("axes", [(TEMPORAL,), (HEIGHT,), (WIDTH,), SPATIAL_AXES, ALL_AXES],
                             ids=lambda a: "+".join(a))
    def test_matches_direct_formula(self, axes):
        x, pos = self._case()
        np.testing.assert_allclose(apply_rope(x, rope_rotation(pos, self.rope, axes)),
                                   rope_direct(x, pos, self.rope, axes), rtol=0, atol=1e-12)

    def test_growing_positions_match_direct_formula(self):
        """Calls in increasing position order, as a rollout makes them, so
        each table size is built in turn."""
        x, _ = self._case(seed=1)
        for p in self.POSITIONS:
            pos = np.full((x.shape[0], 3), p, dtype=np.int64)
            np.testing.assert_allclose(apply_rope(x, rope_rotation(pos, self.rope)),
                                       rope_direct(x, pos, self.rope, ALL_AXES), rtol=0, atol=1e-12)

    def test_float32_keeps_dtype_and_tracks_float64(self):
        x, pos = self._case(seed=2)
        x32 = x.astype(np.float32)
        out32 = apply_rope(x32, rope_rotation(pos, self.rope))
        assert out32.dtype == np.float32
        out64 = apply_rope(x32.astype(np.float64), rope_rotation(pos, self.rope))
        assert np.abs(out32 - out64).max() < 1e-6

    def test_tables_are_read_only(self):
        table = rope_table(8, 10000.0, 64)
        assert table.shape == (64, 4)
        assert table.dtype == np.complex128
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 0] = 0.0
        assert rope_table(8, 10000.0, 64) is table

    @pytest.mark.parametrize("axes", [(TEMPORAL,), (HEIGHT,), (WIDTH,), SPATIAL_AXES, ALL_AXES],
                             ids=lambda a: "+".join(a))
    def test_pairs_within_two_eps_of_real_formula(self, axes):
        """Each rotated pair (a, b) lies within 2*eps*(|a*c| + |b*s|) of
        a*c - b*s, and within 2*eps*(|a*s| + |b*c|) of a*s + b*c, both
        computed exactly from the same table entry c + i*s; channels outside
        the selected groups are unchanged."""
        x, pos = self._case(seed=3)
        out = apply_rope(x, rope_rotation(pos, self.rope, axes))
        eps = Fraction(float(np.finfo(np.float64).eps))
        start = 0
        for column, (axis, width) in enumerate(zip(ALL_AXES, (self.rope.d_t, self.rope.d_h, self.rope.d_w))):
            if axis not in axes:
                np.testing.assert_array_equal(out[:, start:start + width], x[:, start:start + width])
            else:
                table = rope_table(width, self.rope.base, 8192)
                for r in range(x.shape[0]):
                    for k in range(start, start + width, 2):
                        rot = table[pos[r, column], (k - start) // 2]
                        c, s = Fraction(float(rot.real)), Fraction(float(rot.imag))
                        a, b = Fraction(float(x[r, k])), Fraction(float(x[r, k + 1]))
                        for got, t1, t2 in ((out[r, k], a * c, -b * s), (out[r, k + 1], a * s, b * c)):
                            assert abs(Fraction(float(got)) - (t1 + t2)) <= 2 * eps * (abs(t1) + abs(t2))
            start += width

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_input_matches_contiguous_copy(self, layout):
        x, pos = self._case(seed=4)
        if layout == "strided":
            x = np.random.default_rng(4).standard_normal((x.shape[0], 32))[:, ::2]
        else:
            x = np.asfortranarray(x)
        assert not x.flags.c_contiguous
        out = apply_rope(x, rope_rotation(pos, self.rope))
        np.testing.assert_array_equal(out, apply_rope(np.ascontiguousarray(x), rope_rotation(pos, self.rope)))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.bool_, np.float16,
                                       np.complex128, np.object_])
    def test_non_float_tokens_raise(self, dtype):
        pos = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ShapeError):
            apply_rope(np.arange(32).reshape(2, 16).astype(dtype), rope_rotation(pos, self.rope))

    @pytest.mark.parametrize("bad", [
        np.array([[0, 1, -1]] * 2, dtype=np.int64),
        np.array([[-3, 0, 0]] * 2, dtype=np.int64),
        np.array([[0.5, 1.0, 2.0]] * 2),
        np.array([[1.0, 1.0, 2.0]] * 2),
        np.array([[0, 1]] * 2, dtype=np.int64),
    ], ids=["negative-width", "negative-temporal", "fractional", "integral-float", "two-columns"])
    def test_negative_or_non_integer_positions_raise(self, bad):
        with pytest.raises(ShapeError):
            apply_rope(np.ones((2, 16)), rope_rotation(bad, self.rope))


def test_grid_positions_row_major():
    pos = grid_positions(2, 3)
    assert pos.shape == (6, 3)
    assert (pos[:, 0] == 0).all()
    np.testing.assert_array_equal(pos[:, 1], [0, 0, 0, 1, 1, 1])
    np.testing.assert_array_equal(pos[:, 2], [0, 1, 2, 0, 1, 2])
