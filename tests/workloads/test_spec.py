"""Tests for workload specifications (GeMM, transposed GeMM, convolution)."""

import pytest

from repro.workloads import (
    ConvWorkload,
    GemmWorkload,
    WorkloadGroup,
    workload_group,
)


class TestGemmWorkload:
    def test_basic_properties(self):
        workload = GemmWorkload(name="g", m=32, n=48, k=64)
        assert workload.group is WorkloadGroup.GEMM
        assert workload.macs == 32 * 48 * 64
        assert workload.tile_counts(8, 8, 8) == (4, 6, 8)
        assert workload.ideal_compute_cycles(8, 8, 8) == 4 * 6 * 8

    def test_padding_of_odd_dimensions(self):
        workload = GemmWorkload(name="g", m=13, n=9, k=17)
        assert workload.tile_counts(8, 8, 8) == (2, 2, 3)
        assert workload.ideal_compute_cycles(8, 8, 8) == 2 * 2 * 3

    def test_transposed_group(self):
        workload = GemmWorkload(name="t", m=8, n=8, k=8, transposed_a=True)
        assert workload.group is WorkloadGroup.TRANSPOSED_GEMM
        assert workload_group(workload) is WorkloadGroup.TRANSPOSED_GEMM

    def test_scaled_copy(self):
        workload = GemmWorkload(name="g", m=128, n=128, k=128)
        crop = workload.scaled("g_crop", m=32)
        assert crop.m == 32 and crop.n == 128
        assert workload.m == 128  # original unchanged

    @pytest.mark.parametrize("field", ["m", "n", "k"])
    def test_invalid_dimensions(self, field):
        kwargs = {"name": "bad", "m": 8, "n": 8, "k": 8, field: 0}
        with pytest.raises(ValueError):
            GemmWorkload(**kwargs)


class TestConvWorkload:
    def make(self, **overrides):
        params = dict(
            name="c",
            in_height=16,
            in_width=16,
            in_channels=16,
            out_channels=32,
            kernel_h=3,
            kernel_w=3,
            stride=1,
            padding=1,
        )
        params.update(overrides)
        return ConvWorkload(**params)

    def test_output_shape_same_padding(self):
        conv = self.make()
        assert conv.out_height == 16
        assert conv.out_width == 16
        assert conv.output_pixels == 256

    def test_output_shape_valid_padding(self):
        conv = self.make(padding=0)
        assert conv.out_height == 14
        assert conv.out_width == 14

    def test_output_shape_strided(self):
        conv = self.make(stride=2, padding=1)
        assert conv.out_height == 8
        assert conv.is_strided

    def test_macs(self):
        conv = self.make(padding=0)
        assert conv.macs == 14 * 14 * 32 * 16 * 9

    def test_pointwise_detection(self):
        assert self.make(kernel_h=1, kernel_w=1, padding=0).is_pointwise
        assert not self.make().is_pointwise

    def test_implicit_gemm_view(self):
        conv = self.make(padding=0)
        tiles_m, tiles_n, tiles_k = conv.as_gemm_dims(8, 8, 8)
        assert tiles_m == -(-196 // 8)
        assert tiles_n == 4
        assert tiles_k == 9 * 2
        assert conv.ideal_compute_cycles(8, 8, 8) == tiles_m * tiles_n * tiles_k

    def test_im2col_matrix_shape(self):
        """The implicit-GeMM view tiles the im2col matrix: M = 196 output
        pixels, N = 32 output channels, K = 3 x 3 kernel positions x 16
        input channels."""
        conv = self.make(padding=0)
        assert conv.output_pixels == 196
        assert conv.as_gemm_dims(8, 8, 8) == (25, 4, 9 * 2)

    def test_group(self):
        assert self.make().group is WorkloadGroup.CONVOLUTION

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            self.make(in_height=2, in_width=2, kernel_h=3, kernel_w=3, padding=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"in_channels": 0},
            {"out_channels": -1},
            {"kernel_h": 0},
            {"stride": 0},
            {"padding": -1},
        ],
    )
    def test_invalid_parameters(self, overrides):
        with pytest.raises(ValueError):
            self.make(**overrides)
