"""Tests for the blocked tensor layouts (pack/unpack round trips)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import layout as L


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)


class TestGemmLayouts:
    def test_pack_gemm_a_block_order(self):
        """The first 64 bytes are exactly the first 8x8 tile, row major."""
        a = np.arange(16 * 16, dtype=np.int64).astype(np.int8).reshape(16, 16)
        packed = L.pack_gemm_a(a, 8, 8)
        first_tile = packed[:64].view(np.int8).reshape(8, 8)
        assert np.array_equal(first_tile, a[:8, :8])
        # Next tile walks along K (k2 = 1).
        second_tile = packed[64:128].view(np.int8).reshape(8, 8)
        assert np.array_equal(second_tile, a[:8, 8:16])

    def test_pack_gemm_b_block_order(self):
        b = np.arange(16 * 16, dtype=np.int64).astype(np.int8).reshape(16, 16)
        packed = L.pack_gemm_b(b, 8, 8)
        first_tile = packed[:64].view(np.int8).reshape(8, 8)
        assert np.array_equal(first_tile, b[:8, :8])
        # Next tile walks along N (n2 = 1).
        second_tile = packed[64:128].view(np.int8).reshape(8, 8)
        assert np.array_equal(second_tile, b[:8, 8:16])

    def test_pack_gemm_a_transposed_holds_at_blocks(self):
        a = np.arange(8 * 16, dtype=np.int64).astype(np.int8).reshape(8, 16)
        packed = L.pack_gemm_a_transposed(a, 8, 8)
        # First block is A^T[0:8, 0:8] = A[0:8, 0:8]^T.
        first_tile = packed[:64].view(np.int8).reshape(8, 8)
        assert np.array_equal(first_tile, a[:8, :8].T)

    def test_pack_pads_odd_shapes_with_zeros(self):
        a = np.ones((5, 9), dtype=np.int8)
        packed = L.pack_gemm_a(a, 8, 8)
        assert packed.size == 8 * 16
        assert packed.view(np.int8).sum() == 45

    @pytest.mark.parametrize(
        "dtype, shape, seed",
        [("int32", (13, 21), 0), ("int8", (11, 17), 1)],
        ids=["int32", "int8"],
    )
    def test_tiles_roundtrip(self, dtype, shape, seed):
        """Accumulator (int32) and quantized (int8) outputs share one layout."""
        rng = np.random.default_rng(seed)
        info = np.iinfo(dtype)
        x = rng.integers(info.min // 2, info.max // 2, size=shape).astype(dtype)
        packed = L.pack_tiles(x, 8, 8)
        assert packed.size == 16 * 24 * x.itemsize
        back = L.unpack_tiles(packed, dtype, shape, 8, 8)
        assert back.dtype == x.dtype
        assert np.array_equal(back, x)

    def test_unpack_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            L.unpack_tiles(np.zeros(100, dtype=np.uint8), "int32", (8, 8), 8, 8)

    def test_non_2d_inputs_rejected(self):
        with pytest.raises(ValueError):
            L.pack_gemm_a(np.zeros((2, 2, 2), dtype=np.int8), 8, 8)
        with pytest.raises(ValueError):
            L.pack_gemm_b(np.zeros(4, dtype=np.int8), 8, 8)
        with pytest.raises(ValueError):
            L.pack_tiles(np.zeros((2, 2, 2), dtype=np.int32), 8, 8)

    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_acc_roundtrip_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        c = rng.integers(-1000, 1000, size=(rows, cols)).astype(np.int32)
        back = L.unpack_tiles(L.pack_tiles(c, 8, 8), "int32", (rows, cols), 8, 8)
        assert np.array_equal(back, c)


class TestBiasLayouts:
    def test_bias_rows_layout(self):
        bias = np.arange(16, dtype=np.int32)
        packed = L.pack_bias_rows(bias, 8)
        assert packed.size == 16 * 4
        assert np.array_equal(packed.view(np.int32), bias)

    def test_bias_rows_padding(self):
        bias = np.arange(10, dtype=np.int32)
        packed = L.pack_bias_rows(bias, 8)
        assert packed.size == 16 * 4
        assert list(packed.view(np.int32)[10:]) == [0] * 6

    def test_bias_full_replicates_rows(self):
        bias = np.arange(8, dtype=np.int32)
        packed = L.pack_bias_full(bias, 8, 8, 8, 8)
        tile = packed.view(np.int32).reshape(8, 8)
        for row in tile:
            assert np.array_equal(row, bias)

    def test_bias_full_matches_acc_layout(self):
        bias = np.arange(16, dtype=np.int32)
        full = np.tile(bias, (16, 1))
        assert np.array_equal(
            L.pack_bias_full(bias, 16, 16, 8, 8), L.pack_tiles(full, 8, 8)
        )

    def test_bias_too_short_raises(self):
        with pytest.raises(ValueError):
            L.pack_bias_full(np.arange(4, dtype=np.int32), 8, 8, 8, 8)


class TestConvLayouts:
    def test_input_layout_channel_blocked(self):
        fmap = np.arange(4 * 4 * 16, dtype=np.int64).astype(np.int8).reshape(4, 4, 16)
        packed, (h, w, c) = L.pack_conv_input(fmap, 8)
        assert (h, w, c) == (4, 4, 16)
        # First 8 bytes: pixel (0,0), channels 0..7.
        assert np.array_equal(packed[:8].view(np.int8), fmap[0, 0, :8])
        # Channel block 1 starts after the full H*W plane of block 0.
        offset = 4 * 4 * 8
        assert np.array_equal(
            packed[offset : offset + 8].view(np.int8), fmap[0, 0, 8:16]
        )

    def test_input_channel_padding(self):
        fmap = np.ones((2, 2, 3), dtype=np.int8)
        packed, (h, w, c) = L.pack_conv_input(fmap, 8)
        assert c == 8
        assert packed.size == 2 * 2 * 8
        assert packed.view(np.int8).sum() == 12

    def test_weight_layout_tile_order(self):
        weights = np.arange(3 * 3 * 8 * 8, dtype=np.int64).astype(np.int8).reshape(3, 3, 8, 8)
        packed = L.pack_conv_weights(weights, 8, 8)
        # First 64 bytes: (fy=0, fx=0) tile, [c1][n1] row-major.
        first = packed[:64].view(np.int8).reshape(8, 8)
        assert np.array_equal(first, weights[0, 0])
        # Next tile is (fy=0, fx=1).
        second = packed[64:128].view(np.int8).reshape(8, 8)
        assert np.array_equal(second, weights[0, 1])

    @staticmethod
    def conv_roundtrip(dtype, out_w):
        """A conv output is the matrix layout with ``out_h · tiles_x`` row
        tiles: un-block, fold the rows back into ``[y][x]``, crop ``x``."""
        rng = np.random.default_rng(2)
        out_h, out_c = 5, 19
        tiles_x = -(-out_w // 8)
        tiles_n = -(-out_c // 8)
        output = rng.integers(-100, 100, size=(out_h, out_w, out_c)).astype(dtype)
        # Build the blocked byte image the D / E streamer would have written.
        padded = np.zeros((out_h, tiles_x * 8, tiles_n * 8), dtype=dtype)
        padded[:, :out_w, :out_c] = output
        blocked = padded.reshape(out_h, tiles_x, 8, tiles_n, 8).transpose(0, 1, 3, 2, 4)
        raw = blocked.copy().view(np.uint8).reshape(-1)
        back = L.unpack_tiles(raw, dtype, (out_h, out_w, out_c), 8, 8)
        assert back.dtype == output.dtype
        assert np.array_equal(back, output)
        # The same bytes through the plain matrix un-blocking plus reshape/crop.
        rows = L.unpack_tiles(raw, dtype, (out_h * tiles_x * 8, out_c), 8, 8)
        folded = rows.reshape(out_h, tiles_x * 8, out_c)[:, :out_w]
        assert np.array_equal(folded, output)

    def test_conv_output_roundtrip(self):
        self.conv_roundtrip("int32", out_w=11)

    @pytest.mark.parametrize(
        "dtype, out_w", [("int8", 11), ("int8", 16), ("int32", 16), ("int32", 3)]
    )
    def test_conv_output_roundtrip_other_types_and_widths(self, dtype, out_w):
        self.conv_roundtrip(dtype, out_w)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            L.pack_conv_input(np.zeros((4, 4), dtype=np.int8), 8)
        with pytest.raises(ValueError):
            L.pack_conv_weights(np.zeros((3, 3, 8), dtype=np.int8), 8, 8)
        with pytest.raises(ValueError):
            L.unpack_tiles(np.zeros(16, dtype=np.uint8), "int32", (2, 2, 2), 8, 8)

