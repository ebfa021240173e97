"""Tests for the workload-to-system compiler (runtime config generation)."""

import numpy as np
import pytest

from repro.compiler import compile_conv, compile_gemm, compile_workload
from repro.core import FeatureSet, reference_address_sequence
from repro.core.agu import reference_temporal_addresses
from repro.memory import decode_address
from repro.system import datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload

DESIGN = datamaestro_evaluation_system()
FULL = FeatureSet.all_enabled()


def gemm_workload(**overrides):
    params = dict(name="map_gemm", m=16, n=24, k=32)
    params.update(overrides)
    return GemmWorkload(**params)


def conv_workload(**overrides):
    params = dict(
        name="map_conv",
        in_height=10,
        in_width=10,
        in_channels=16,
        out_channels=16,
        kernel_h=3,
        kernel_w=3,
        stride=1,
        padding=1,
    )
    params.update(overrides)
    return ConvWorkload(**params)


class TestGemmCompilation:
    def test_job_tiling(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        assert (program.job.tiles_m, program.job.tiles_n, program.job.tiles_k) == (2, 3, 4)
        assert program.ideal_compute_cycles == 24

    def test_streamer_word_counts_match_job(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        job = program.job
        assert program.streamer_configs["A"].total_iterations == job.ideal_compute_cycles
        assert program.streamer_configs["B"].total_iterations == job.ideal_compute_cycles
        assert program.streamer_configs["C"].total_iterations == job.output_tiles
        assert program.streamer_configs["D"].total_iterations == job.output_tiles

    def test_a_stream_addresses_stay_inside_region(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        config = program.streamer_configs["A"]
        load = next(l for l in program.tensor_loads if l.name == "A")
        addresses = reference_address_sequence(
            config.temporal_bounds,
            config.temporal_strides,
            DESIGN.streamer("A").spatial_bounds,
            config.spatial_strides,
            config.base_address,
        )
        flat = [a for bundle in addresses for a in bundle]
        assert min(flat) >= load.base_address
        assert max(flat) + 8 <= load.base_address + load.size_bytes

    def test_a_stream_reads_first_tile_first(self):
        """The first wide word assembled by port A is the first A tile."""
        workload = gemm_workload()
        program = compile_gemm(workload, DESIGN, FULL)
        config = program.streamer_configs["A"]
        load = next(l for l in program.tensor_loads if l.name == "A")
        first_addresses = reference_address_sequence(
            config.temporal_bounds,
            config.temporal_strides,
            DESIGN.streamer("A").spatial_bounds,
            config.spatial_strides,
            config.base_address,
        )[0]
        word = np.concatenate(
            [
                load.data[a - load.base_address : a - load.base_address + 8]
                for a in first_addresses
            ]
        )
        assert word.size == 64

    def test_broadcaster_config(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        config = program.streamer_configs["C"]
        assert config.active_channels == 4
        assert config.extension_enables == (True,)
        assert dict(config.extension_params_dict()["broadcaster"])["factor"] == 8

    def test_broadcaster_disabled_materialises_full_tiles(self):
        features = FULL.with_updates(broadcaster=False)
        program = compile_gemm(gemm_workload(), DESIGN, features)
        config = program.streamer_configs["C"]
        assert config.active_channels is None
        c_load = next(l for l in program.tensor_loads if l.name == "C")
        # Full init tiles: tiles_m * tiles_n * 256 bytes instead of Nt*32.
        assert c_load.size_bytes == 2 * 3 * 256

    def test_transposed_gemm_uses_transposer(self):
        program = compile_gemm(gemm_workload(transposed_a=True), DESIGN, FULL)
        assert program.streamer_configs["A"].extension_enables == (True,)
        assert not program.prepasses

    def test_transposed_gemm_without_feature_adds_prepass(self):
        features = FULL.with_updates(transposer=False)
        program = compile_gemm(gemm_workload(transposed_a=True), DESIGN, features)
        assert program.streamer_configs["A"].extension_enables == (False,)
        assert program.prepasses[0].name == "software_transpose_A"
        assert program.prepasses[0].word_reads + program.prepasses[0].word_writes > 0

    def test_quantized_gemm_uses_port_e(self):
        program = compile_gemm(gemm_workload(quantize=True), DESIGN, FULL)
        assert "E" in program.streamer_configs
        assert "D" not in program.streamer_configs
        assert program.uses_quantizer
        assert program.quant_config.shift >= 0

    def test_no_bias_drops_port_c(self):
        program = compile_gemm(gemm_workload(with_bias=False), DESIGN, FULL)
        assert "C" not in program.streamer_configs
        assert not program.job.use_init_stream

    def test_addressing_mode_selection(self):
        switched = compile_gemm(gemm_workload(), DESIGN, FULL)
        flat = compile_gemm(
            gemm_workload(), DESIGN, FULL.with_updates(addressing_mode_switching=False)
        )
        assert switched.streamer_configs["A"].bank_group_size == 16
        assert flat.streamer_configs["A"].bank_group_size == DESIGN.memory.num_banks

    def test_operand_regions_in_disjoint_bank_groups(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        geometry = DESIGN.memory.geometry()
        banks_by_port = {}
        for load in program.tensor_loads:
            banks = set()
            for offset in range(0, load.size_bytes, 8):
                banks.add(
                    decode_address(
                        load.base_address + offset, geometry, load.group_size
                    ).bank
                )
            banks_by_port[load.name] = banks
        assert banks_by_port["A"].isdisjoint(banks_by_port["B"])

    def test_csr_writes_emitted_for_every_port(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        assert set(program.csr_writes) == set(program.streamer_configs)
        for writes in program.csr_writes.values():
            assert all(isinstance(offset, int) for offset, _ in writes)

    def test_describe_summary(self):
        program = compile_gemm(gemm_workload(), DESIGN, FULL)
        summary = program.describe()
        assert summary["workload"] == "map_gemm"
        assert summary["tiles"] == (2, 3, 4)
        assert summary["active_ports"] == ["A", "B", "C", "D"]


class TestConvCompilation:
    def test_job_tiling(self):
        program = compile_conv(conv_workload(), DESIGN, FULL)
        # 10x10 input, 3x3 pad 1 -> 10x10 output; tiles_x = 2, tiles_m = 20.
        assert program.job.tiles_m == 20
        assert program.job.tiles_n == 2
        assert program.job.tiles_k == 9 * 2

    def test_a_stream_is_six_dimensional(self):
        program = compile_conv(conv_workload(), DESIGN, FULL)
        config = program.streamer_configs["A"]
        assert len(config.temporal_bounds) == 6
        assert config.total_iterations == program.ideal_compute_cycles

    def test_a_stream_addresses_stay_inside_region(self):
        program = compile_conv(conv_workload(), DESIGN, FULL)
        config = program.streamer_configs["A"]
        load = next(l for l in program.tensor_loads if l.name == "A")
        temporal = reference_temporal_addresses(
            config.temporal_bounds, config.temporal_strides, config.base_address
        )
        max_spatial = config.spatial_strides[0] * 7
        assert min(temporal) >= load.base_address
        assert max(temporal) + max_spatial + 8 <= load.base_address + load.size_bytes

    def test_strided_conv_spatial_stride(self):
        program = compile_conv(conv_workload(stride=2), DESIGN, FULL)
        config = program.streamer_configs["A"]
        assert config.spatial_strides == (16,)  # stride * ku bytes

    def test_im2col_prepass_only_without_feature(self):
        with_feature = compile_conv(conv_workload(), DESIGN, FULL)
        without = compile_conv(
            conv_workload(), DESIGN, FULL.with_updates(implicit_im2col=False)
        )
        assert not with_feature.prepasses
        assert without.prepasses[0].name == "software_im2col"

    def test_pointwise_needs_no_im2col_prepass(self):
        program = compile_conv(
            conv_workload(kernel_h=1, kernel_w=1, padding=0),
            DESIGN,
            FULL.with_updates(implicit_im2col=False),
        )
        assert not program.prepasses

    def test_quantized_conv(self):
        program = compile_conv(conv_workload(quantize=True), DESIGN, FULL)
        assert "E" in program.streamer_configs
        assert program.expected_outputs["E"].dtype == np.int8


class TestDispatchAndDeterminism:
    def test_dispatch_by_type(self):
        assert compile_workload(gemm_workload(), DESIGN, FULL).metadata["kind"] == "gemm"
        assert compile_workload(conv_workload(), DESIGN, FULL).metadata["kind"] == "conv"
        with pytest.raises(TypeError):
            compile_workload("not a workload", DESIGN, FULL)

    def test_default_features_are_all_enabled(self):
        program = compile_workload(gemm_workload(), DESIGN)
        assert program.features == FeatureSet.all_enabled()

    def test_same_seed_same_data(self):
        first = compile_workload(gemm_workload(), DESIGN, FULL, seed=7)
        second = compile_workload(gemm_workload(), DESIGN, FULL, seed=7)
        assert np.array_equal(first.expected_outputs["D"], second.expected_outputs["D"])

    def test_different_seed_different_data(self):
        first = compile_workload(gemm_workload(), DESIGN, FULL, seed=1)
        second = compile_workload(gemm_workload(), DESIGN, FULL, seed=2)
        assert not np.array_equal(
            first.expected_outputs["D"], second.expected_outputs["D"]
        )

    def test_feature_set_does_not_change_expected_result(self):
        full = compile_workload(gemm_workload(transposed_a=True), DESIGN, FULL)
        base = compile_workload(
            gemm_workload(transposed_a=True), DESIGN, FeatureSet.all_disabled()
        )
        assert np.array_equal(full.expected_outputs["D"], base.expected_outputs["D"])
