"""Tests for the SotA comparator models (Table I profiles, Fig. 10 models)."""

import pytest

from repro.baselines import (
    BASELINE_REGISTRY,
    BitWaveModel,
    BuffetModel,
    DataMaestroSolution,
    FeatherModel,
    GemminiModel,
    SoftbrainModel,
    TABLE1_FEATURES,
    create_baseline,
    overhead_comparison,
    table1_solutions,
    throughput_baselines,
    workload_as_gemm,
)
from repro.workloads import ConvWorkload, GemmWorkload

GEMM64 = GemmWorkload(name="b_gemm64", m=64, n=64, k=64)
GEMM128 = GemmWorkload(name="b_gemm128", m=128, n=128, k=128)
CONV3 = ConvWorkload(
    name="b_conv3",
    in_height=16,
    in_width=16,
    in_channels=32,
    out_channels=32,
    kernel_h=3,
    kernel_w=3,
    padding=1,
)
CONV7 = ConvWorkload(
    name="b_conv7",
    in_height=16,
    in_width=16,
    in_channels=16,
    out_channels=32,
    kernel_h=7,
    kernel_w=7,
    stride=2,
    padding=3,
)


class TestRegistries:
    def test_table1_contains_nine_solutions(self):
        solutions = table1_solutions()
        names = [s.name for s in solutions]
        assert len(solutions) == 9
        assert "DataMaestro" in names
        assert "Buffet" in names and "Softbrain" in names

    def test_feature_profiles_cover_all_table1_rows(self):
        for solution in table1_solutions():
            profile = solution.feature_profile().as_dict()
            assert set(TABLE1_FEATURES) <= set(profile)

    def test_only_datamaestro_has_every_feature(self):
        complete = []
        for solution in table1_solutions():
            profile = solution.feature_profile().as_dict()
            if all(profile[f] not in (False, None) for f in TABLE1_FEATURES):
                complete.append(solution.name)
        assert complete == ["DataMaestro"]

    def test_throughput_baselines(self):
        names = [b.name for b in throughput_baselines()]
        assert names == ["Gemmini (OS)", "Gemmini (WS)", "BitWave", "FEATHER"]
        assert all(b.has_performance_model for b in throughput_baselines())

    def test_overhead_comparison_matches_paper_table(self):
        overhead = overhead_comparison()
        assert overhead["Buffet"].area_percent == pytest.approx(2.0)
        assert overhead["Softbrain"].power_percent == pytest.approx(15.3)
        assert overhead["BitWave"].area_percent == pytest.approx(11.9)
        assert overhead["FEATHER"].power_percent is None

    def test_describe_includes_overheads(self):
        info = BuffetModel().describe()
        assert info["data_movement_area_percent"] == 2.0

    def test_registry_slugs_round_trip(self):
        """describe() must advertise slugs create_baseline() accepts."""
        for slug in BASELINE_REGISTRY:
            info = create_baseline(slug).describe()
            assert info["slug"] == slug
            assert create_baseline(info["slug"]).name == info["name"]

    def test_create_unknown_baseline(self):
        with pytest.raises(KeyError):
            create_baseline("warp-drive")

    def test_registry_covers_table1(self):
        assert len(BASELINE_REGISTRY) == 10  # 9 Table I columns + Gemmini WS


class TestWorkloadAsGemm:
    def test_gemm_passthrough(self):
        assert workload_as_gemm(GEMM64) == (64, 64, 64)

    def test_conv_implicit_gemm_view(self):
        m, n, k = workload_as_gemm(CONV3)
        assert m == CONV3.output_pixels
        assert n == 32
        assert k == 9 * 32

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            workload_as_gemm(42)


class TestGemminiModel:
    def test_low_utilization_due_to_unmanaged_data_movement(self):
        model = GemminiModel("OS")
        assert model.utilization(GEMM64) < 0.25

    def test_weight_stationary_beats_output_stationary(self):
        os_model = GemminiModel("OS")
        ws_model = GemminiModel("WS")
        assert ws_model.utilization(GEMM64) > os_model.utilization(GEMM64)

    def test_utilization_bounded(self):
        model = GemminiModel("OS")
        for workload in (GEMM64, GEMM128, CONV3, CONV7):
            assert 0.0 < model.utilization(workload) < 1.0

    def test_invalid_dataflow(self):
        with pytest.raises(ValueError):
            GemminiModel("XS")

    def test_no_decoupling_in_feature_profile(self):
        profile = GemminiModel("OS").feature_profile()
        assert not profile.decoupled_access_execute
        assert not profile.fine_grained_prefetch


class TestBitWaveAndFeather:
    def test_bitwave_conv_specialisation(self):
        model = BitWaveModel()
        assert model.utilization(CONV3) > model.utilization(GEMM64)

    def test_bitwave_large_kernel_penalty(self):
        model = BitWaveModel()
        assert model.utilization(CONV3) > model.utilization(CONV7)

    def test_feather_is_the_strongest_baseline(self):
        feather = FeatherModel()
        others = [GemminiModel("OS"), GemminiModel("WS"), BitWaveModel()]
        for workload in (GEMM64, GEMM128):
            assert feather.utilization(workload) > max(
                other.utilization(workload) for other in others
            )

    def test_feather_reports_on_the_fly_manipulation(self):
        assert FeatherModel().feature_profile().on_the_fly_data_manipulation

    def test_softbrain_has_no_performance_model(self):
        model = SoftbrainModel()
        assert not model.has_performance_model
        with pytest.raises(NotImplementedError):
            model.utilization(GEMM64)


class TestDataMaestroSolution:
    def test_measured_utilization_beats_every_baseline(self):
        ours = DataMaestroSolution()
        our_util = ours.utilization(GEMM64)
        assert our_util > 0.95
        for baseline in throughput_baselines():
            assert our_util > baseline.utilization(GEMM64)

    def test_utilization_cache(self):
        ours = DataMaestroSolution()
        first = ours.utilization(GEMM64)
        second = ours.utilization(GEMM64)
        assert first == second

    def test_overhead_profile_from_area_model(self):
        profile = DataMaestroSolution().overhead_profile()
        assert 2.0 < profile.area_percent < 15.0
