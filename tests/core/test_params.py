"""Tests for design-time / runtime parameter validation (Table II)."""

import pytest

from repro.core import (
    ABLATION_STEPS,
    ExtensionSpec,
    FeatureSet,
    MemoryDesign,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
    ablation_feature_sets,
    validate_streamer_designs,
)


def make_design(**overrides):
    params = dict(
        name="dm_a",
        mode=StreamerMode.READ,
        num_channels=8,
        spatial_bounds=(8,),
        temporal_dims=3,
        bank_width_bits=64,
        address_buffer_depth=8,
        data_buffer_depth=8,
        extensions=(ExtensionSpec.make("transposer", rows=8, cols=8, element_bytes=1),),
    )
    params.update(overrides)
    return StreamerDesign(**params)


def make_runtime(**overrides):
    params = dict(
        base_address=0,
        temporal_bounds=(2, 2, 2),
        temporal_strides=(64, 0, 128),
        spatial_strides=(8,),
        bank_group_size=16,
    )
    params.update(overrides)
    return StreamerRuntimeConfig(**params)


class TestStreamerDesign:
    def test_valid_design_properties(self):
        design = make_design()
        assert design.spatial_dims == 1
        assert design.bank_width_bytes == 8
        assert design.word_bytes == 64
        assert design.is_read and not design.is_write
        assert [spec.kind for spec in design.extensions] == ["transposer"]

    def test_spatial_bounds_must_match_channels(self):
        with pytest.raises(ValueError):
            make_design(num_channels=8, spatial_bounds=(4,))

    def test_two_dim_spatial_bounds(self):
        design = make_design(num_channels=32, spatial_bounds=(8, 4))
        assert design.spatial_dims == 2
        assert design.word_bytes == 256

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_channels": 0, "spatial_bounds": ()},
            {"temporal_dims": 0},
            {"bank_width_bits": 65},
            {"address_buffer_depth": 0},
            {"data_buffer_depth": -1},
            {"spatial_bounds": (0,), "num_channels": 0},
        ],
    )
    def test_invalid_designs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_design(**overrides)


class TestStreamerRuntimeConfig:
    def test_total_iterations(self):
        runtime = make_runtime(temporal_bounds=(2, 3, 4), temporal_strides=(1, 2, 3))
        assert runtime.total_iterations == 24

    def test_validate_against_accepts_matching_design(self):
        make_runtime().validate_against(make_design())

    def test_too_many_temporal_dims_rejected(self):
        runtime = make_runtime(
            temporal_bounds=(2, 2, 2, 2), temporal_strides=(1, 1, 1, 1)
        )
        with pytest.raises(ValueError):
            runtime.validate_against(make_design(temporal_dims=3))

    def test_wrong_spatial_stride_count_rejected(self):
        runtime = make_runtime(spatial_strides=(8, 8))
        with pytest.raises(ValueError):
            runtime.validate_against(make_design())

    def test_active_channels_must_divide(self):
        runtime = make_runtime(active_channels=3)
        with pytest.raises(ValueError):
            runtime.validate_against(make_design())

    def test_active_channels_cannot_exceed_design(self):
        runtime = make_runtime(active_channels=16)
        with pytest.raises(ValueError):
            runtime.validate_against(make_design())

    def test_extension_enable_count_checked(self):
        runtime = make_runtime(extension_enables=(True, False))
        with pytest.raises(ValueError):
            runtime.validate_against(make_design())

    def test_with_updates(self):
        runtime = make_runtime()
        updated = runtime.with_updates(base_address=4096)
        assert updated.base_address == 4096
        assert runtime.base_address == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"base_address": -1},
            {"temporal_bounds": (0,), "temporal_strides": (1,)},
            {"temporal_bounds": (2,), "temporal_strides": (1, 2)},
            {"bank_group_size": 0},
            {"active_channels": 0},
        ],
    )
    def test_invalid_runtime_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_runtime(**overrides)


class TestMemoryDesign:
    def test_geometry_derivation(self):
        memory = MemoryDesign(
            num_banks=32,
            bank_width_bits=64,
            capacity_bytes=128 * 1024,
            group_size_options=(32, 8),
        )
        geometry = memory.geometry()
        assert geometry.num_banks == 32
        assert geometry.bank_width_bytes == 8
        assert geometry.bank_depth == 512
        assert memory.bank_depth * 32 * 8 == 128 * 1024

    def test_group_options_resolved_with_endpoints(self):
        memory = MemoryDesign(
            num_banks=32,
            bank_width_bits=64,
            capacity_bytes=128 * 1024,
            group_size_options=(8,),
        )
        assert memory.resolved_group_options() == (32, 8, 1)

    def test_invalid_group_option_rejected(self):
        with pytest.raises(ValueError):
            MemoryDesign(
                num_banks=32,
                bank_width_bits=64,
                capacity_bytes=128 * 1024,
                group_size_options=(5,),
            )

    def test_non_integral_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryDesign(num_banks=32, bank_width_bits=64, capacity_bytes=1000)


class TestFeatureSet:
    def test_defaults_enabled(self):
        features = FeatureSet.all_enabled()
        assert all(features.as_dict().values())

    def test_all_disabled(self):
        features = FeatureSet.all_disabled()
        assert not any(features.as_dict().values())

    def test_with_updates(self):
        features = FeatureSet.all_disabled().with_updates(transposer=True)
        assert features.transposer
        assert not features.fine_grained_prefetch

    def test_ablation_ladder_matches_paper_order(self):
        names = [name for name, _ in ABLATION_STEPS]
        assert names == [
            "1_baseline",
            "2_prefetch",
            "3_transposer",
            "4_broadcaster",
            "5_im2col",
            "6_full",
        ]
        ladder = ablation_feature_sets()
        assert not ladder["1_baseline"].fine_grained_prefetch
        assert ladder["2_prefetch"].fine_grained_prefetch
        assert not ladder["2_prefetch"].transposer
        assert ladder["6_full"] == FeatureSet.all_enabled()

    def test_each_step_adds_exactly_one_feature(self):
        ladder = [features for _, features in ABLATION_STEPS]
        for earlier, later in zip(ladder, ladder[1:]):
            earlier_on = sum(earlier.as_dict().values())
            later_on = sum(later.as_dict().values())
            assert later_on == earlier_on + 1


class TestCrossValidation:
    def test_duplicate_names_rejected(self):
        memory = MemoryDesign(num_banks=32, bank_width_bits=64, capacity_bytes=128 * 1024)
        with pytest.raises(ValueError):
            validate_streamer_designs([make_design(), make_design()], memory)

    def test_bank_width_mismatch_rejected(self):
        memory = MemoryDesign(num_banks=32, bank_width_bits=32, capacity_bytes=128 * 1024)
        with pytest.raises(ValueError):
            validate_streamer_designs([make_design()], memory)

    def test_more_channels_than_banks_rejected(self):
        memory = MemoryDesign(num_banks=4, bank_width_bits=64, capacity_bytes=32 * 1024)
        with pytest.raises(ValueError):
            validate_streamer_designs([make_design()], memory)

    def test_valid_combination_passes(self):
        memory = MemoryDesign(num_banks=32, bank_width_bits=64, capacity_bytes=128 * 1024)
        validate_streamer_designs(
            [make_design(), make_design(name="dm_b")], memory
        )
