"""Tests for the numpy oracle kernels (GeMM, conv2d, im2col)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import conv2d_reference, gemm_reference, im2col_reference


class TestGemmReference:
    def test_matches_numpy_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-64, 64, size=(5, 7)).astype(np.int8)
        b = rng.integers(-64, 64, size=(7, 3)).astype(np.int8)
        assert np.array_equal(
            gemm_reference(a, b), a.astype(np.int32) @ b.astype(np.int32)
        )

    def test_bias_added_per_column(self):
        a = np.ones((2, 2), dtype=np.int8)
        b = np.ones((2, 2), dtype=np.int8)
        bias = np.array([10, -10], dtype=np.int32)
        out = gemm_reference(a, b, bias)
        assert np.array_equal(out, np.array([[12, -8], [12, -8]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            gemm_reference(np.zeros((2, 3), dtype=np.int8), np.zeros((2, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            gemm_reference(
                np.zeros((2, 2), dtype=np.int8),
                np.zeros((2, 2), dtype=np.int8),
                bias=np.zeros(3, dtype=np.int32),
            )

    def test_int32_accumulation_no_overflow_in_int8(self):
        a = np.full((1, 64), 127, dtype=np.int8)
        b = np.full((64, 1), 127, dtype=np.int8)
        assert gemm_reference(a, b)[0, 0] == 64 * 127 * 127


class TestConvReference:
    def test_identity_kernel(self):
        fmap = np.arange(4 * 4, dtype=np.int64).astype(np.int8).reshape(4, 4, 1)
        weights = np.zeros((1, 1, 1, 1), dtype=np.int8)
        weights[0, 0, 0, 0] = 1
        out = conv2d_reference(fmap, weights)
        assert np.array_equal(out[:, :, 0], fmap[:, :, 0].astype(np.int32))

    def test_against_explicit_im2col_gemm(self):
        rng = np.random.default_rng(1)
        fmap = rng.integers(-16, 16, size=(6, 6, 4)).astype(np.int8)
        weights = rng.integers(-16, 16, size=(3, 3, 4, 5)).astype(np.int8)
        direct = conv2d_reference(fmap, weights, stride=1, padding=1)
        matrix = im2col_reference(fmap, 3, 3, stride=1, padding=1).astype(np.int32)
        flat_weights = weights.reshape(-1, 5).astype(np.int32)
        via_gemm = (matrix @ flat_weights).reshape(6, 6, 5)
        assert np.array_equal(direct, via_gemm)

    def test_stride_and_padding_shapes(self):
        fmap = np.zeros((9, 9, 2), dtype=np.int8)
        weights = np.zeros((3, 3, 2, 4), dtype=np.int8)
        assert conv2d_reference(fmap, weights, stride=2, padding=1).shape == (5, 5, 4)
        assert conv2d_reference(fmap, weights, stride=1, padding=0).shape == (7, 7, 4)

    def test_bias(self):
        fmap = np.zeros((3, 3, 1), dtype=np.int8)
        weights = np.zeros((1, 1, 1, 2), dtype=np.int8)
        out = conv2d_reference(fmap, weights, bias=np.array([3, -4], dtype=np.int32))
        assert np.array_equal(out[0, 0], np.array([3, -4]))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv2d_reference(
                np.zeros((4, 4, 3), dtype=np.int8), np.zeros((3, 3, 2, 4), dtype=np.int8)
            )

    def test_invalid_parameters(self):
        fmap = np.zeros((4, 4, 2), dtype=np.int8)
        weights = np.zeros((3, 3, 2, 4), dtype=np.int8)
        with pytest.raises(ValueError):
            conv2d_reference(fmap, weights, stride=0)
        with pytest.raises(ValueError):
            conv2d_reference(fmap, weights, padding=-1)
        with pytest.raises(ValueError):
            conv2d_reference(np.zeros((2, 2, 2), dtype=np.int8), weights)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=1),
        kernel=st.sampled_from([1, 3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_property(self, seed, stride, padding, kernel):
        """conv(2*x) == 2*conv(x) for zero-bias convolutions."""
        rng = np.random.default_rng(seed)
        fmap = rng.integers(-20, 20, size=(6, 6, 3)).astype(np.int8)
        weights = rng.integers(-8, 8, size=(kernel, kernel, 3, 4)).astype(np.int8)
        single = conv2d_reference(fmap, weights, stride=stride, padding=padding)
        doubled = conv2d_reference(
            (fmap.astype(np.int32) * 2).astype(np.int8), weights, stride=stride, padding=padding
        )
        assert np.array_equal(doubled, 2 * single)


def wrapped_gemm(a, b, bias=None):
    """Plain int64 GeMM, wrapped to int32 at the end."""
    out = a.astype(np.int64) @ b.astype(np.int64)
    if bias is not None:
        out = out + bias.astype(np.int64)
    return out.astype(np.int32)


def wrapped_conv(fmap, weights, bias=None):
    """Plain int64 convolution (stride 1, no padding) as an im2col GeMM,
    wrapped to int32 at the end."""
    kernel_h, kernel_w, _, out_channels = weights.shape
    matrix = im2col_reference(fmap, kernel_h, kernel_w).astype(np.int64)
    out = matrix @ weights.reshape(-1, out_channels).astype(np.int64)
    if bias is not None:
        out = out + bias.astype(np.int64)
    out_h = fmap.shape[0] - kernel_h + 1
    return out.reshape(out_h, -1, out_channels).astype(np.int32)


class TestInt32Wraparound:
    """Both references accumulate mod 2**32: they equal a plain int64
    computation wrapped to int32, also where a sum leaves int32's range."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, size=(9, 40), dtype=np.int8)
        b = rng.integers(-128, 128, size=(40, 7), dtype=np.int8)
        bias = rng.integers(-(2**31), 2**31, size=7, dtype=np.int64).astype(np.int32)
        assert np.array_equal(gemm_reference(a, b, bias), wrapped_gemm(a, b, bias))
        fmap = rng.integers(-128, 128, size=(6, 5, 8), dtype=np.int8)
        weights = rng.integers(-128, 128, size=(3, 2, 8, 4), dtype=np.int8)
        conv_bias = rng.integers(-(2**31), 2**31, size=4, dtype=np.int64)
        assert np.array_equal(
            conv2d_reference(fmap, weights, conv_bias.astype(np.int32)),
            wrapped_conv(fmap, weights, conv_bias.astype(np.int32)),
        )

    def test_all_minus_128_operands_wrap(self):
        # (-128)**2 = 2**14, so 2**17 + 3 products leave int32's range.
        k = 2**17 + 3
        a = np.full((2, k), -128, dtype=np.int8)
        b = np.full((k, 3), -128, dtype=np.int8)
        expected = wrapped_gemm(a, b)
        assert expected[0, 0] == k * 2**14 - 2**32
        assert np.array_equal(gemm_reference(a, b), expected)
        # One filter tap whose own reduction wraps, and many taps whose
        # sum does.
        for shape in [(1, 1, k, 2), (3, 3, 2**14 + 1, 2)]:
            weights = np.full(shape, -128, dtype=np.int8)
            fmap = np.full((shape[0], shape[1] + 1, shape[2]), -128, dtype=np.int8)
            expected = wrapped_conv(fmap, weights)
            assert expected.min() < 0
            assert np.array_equal(conv2d_reference(fmap, weights), expected)


class TestIm2colReference:
    def test_shape(self):
        fmap = np.zeros((5, 5, 3), dtype=np.int8)
        matrix = im2col_reference(fmap, 3, 3)
        assert matrix.shape == (9, 27)

    def test_pointwise_is_flattening(self):
        fmap = np.arange(2 * 2 * 3, dtype=np.int64).astype(np.int8).reshape(2, 2, 3)
        matrix = im2col_reference(fmap, 1, 1)
        assert np.array_equal(matrix, fmap.reshape(4, 3))
