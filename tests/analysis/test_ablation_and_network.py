"""Tests for the ablation driver and the network-level estimator.

These run small cycle simulations (tiny workload subsets / cropped layers),
checking the *structure* and invariants of the analysis; the paper's Fig. 7
and Table III bars are checked in ``tests/experiments/``.
"""

import pytest

from repro.analysis import (
    AblationStudy,
    NetworkPerformanceEstimator,
    representative_crop,
)
from repro.core import FeatureSet
from repro.system import datamaestro_evaluation_system
from repro.workloads import (
    ConvWorkload,
    GemmWorkload,
    NetworkLayer,
    NetworkModel,
    WorkloadGroup,
)

DESIGN = datamaestro_evaluation_system()

TINY_SUITE = {
    WorkloadGroup.GEMM: [GemmWorkload(name="abl_gemm", m=32, n=32, k=64)],
    WorkloadGroup.TRANSPOSED_GEMM: [
        GemmWorkload(name="abl_tgemm", m=32, n=32, k=64, transposed_a=True)
    ],
    WorkloadGroup.CONVOLUTION: [
        ConvWorkload(
            name="abl_conv",
            in_height=10,
            in_width=10,
            in_channels=16,
            out_channels=16,
            kernel_h=3,
            kernel_w=3,
        )
    ],
}


@pytest.fixture(scope="module")
def ablation_results():
    study = AblationStudy(design=DESIGN)
    return study.run(suite=TINY_SUITE, verify_functional=True)


class TestAblationStudy:
    def test_all_steps_and_groups_present(self, ablation_results):
        assert len(ablation_results.steps()) == 6
        assert len(ablation_results.groups()) == 3
        assert len(ablation_results.entries) == 18

    def test_baseline_normalization(self, ablation_results):
        accesses = ablation_results.normalized_access_counts()
        for group in ablation_results.groups():
            assert accesses[group]["1_baseline"] == pytest.approx(1.0)

    def test_utilization_improves_monotonically_enough(self, ablation_results):
        util = ablation_results.mean_utilization()
        for group in ablation_results.groups():
            ladder = util[group]
            assert ladder["6_full"] > ladder["1_baseline"]
            assert ladder["2_prefetch"] > ladder["1_baseline"]

    def test_feature_specific_effects(self, ablation_results):
        util = ablation_results.mean_utilization()
        accesses = ablation_results.normalized_access_counts()
        # Transposer helps the transposed-GeMM group.
        tg = util[WorkloadGroup.TRANSPOSED_GEMM]
        assert tg["3_transposer"] > tg["2_prefetch"]
        # Implicit im2col helps convolution.
        conv = util[WorkloadGroup.CONVOLUTION]
        assert conv["5_im2col"] > conv["4_broadcaster"]
        # Broadcaster reduces accesses everywhere.
        for group in ablation_results.groups():
            assert accesses[group]["4_broadcaster"] < accesses[group]["3_transposer"]

    def test_speedup_and_reduction_summaries(self, ablation_results):
        assert ablation_results.max_speedup() > 1.5
        assert 0.0 < ablation_results.max_access_reduction() < 0.6
        speedups = ablation_results.speedup_over_baseline()
        for group in ablation_results.groups():
            assert speedups[group]["1_baseline"] == pytest.approx(1.0)
            assert speedups[group]["6_full"] > 1.5

    def test_distribution_statistics(self, ablation_results):
        distribution = ablation_results.utilization_distribution()
        for group, by_step in distribution.items():
            for stats in by_step.values():
                assert 0.0 < stats.minimum <= stats.maximum <= 1.0

    def test_step_subset_selection(self):
        study = AblationStudy(design=DESIGN, steps=["1_baseline", "6_full"])
        assert list(study.steps) == ["1_baseline", "6_full"]
        with pytest.raises(ValueError):
            AblationStudy(design=DESIGN, steps=["bogus"])

    def test_workloads_per_group_subsampling(self):
        study = AblationStudy(design=DESIGN, steps=["6_full"])
        suite = {
            WorkloadGroup.GEMM: [
                GemmWorkload(name=f"sub_{i}", m=16, n=16, k=16) for i in range(5)
            ]
        }
        results = study.run(suite=suite, workloads_per_group=2)
        assert len(results.entries) == 2


class TestRepresentativeCrop:
    def test_gemm_crop_caps_dimensions(self):
        layer = GemmWorkload(name="big", m=197, n=2304, k=768)
        crop = representative_crop(layer)
        assert crop.m <= 64 and crop.n <= 64 and crop.k <= 128
        assert crop.transposed_a == layer.transposed_a

    def test_small_gemm_unchanged_dimensions(self):
        layer = GemmWorkload(name="small", m=32, n=48, k=64)
        crop = representative_crop(layer)
        assert (crop.m, crop.n, crop.k) == (32, 48, 64)

    def test_conv_crop_preserves_kernel_and_stride(self):
        layer = ConvWorkload(
            name="big_conv",
            in_height=224,
            in_width=224,
            in_channels=3,
            out_channels=64,
            kernel_h=7,
            kernel_w=7,
            stride=2,
            padding=3,
        )
        crop = representative_crop(layer)
        assert crop.kernel_h == 7 and crop.stride == 2 and crop.padding == 3
        assert crop.out_height <= 14
        assert crop.out_channels <= 32

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            representative_crop("layer")


class TestNetworkEstimator:
    def test_small_network_estimate(self):
        model = NetworkModel(
            name="TinyNet",
            kind="CNN",
            layers=(
                NetworkLayer(
                    ConvWorkload(
                        name="tiny_conv",
                        in_height=16,
                        in_width=16,
                        in_channels=16,
                        out_channels=16,
                        kernel_h=3,
                        kernel_w=3,
                        padding=1,
                    ),
                    count=2,
                ),
                NetworkLayer(GemmWorkload(name="tiny_fc", m=1, n=64, k=256)),
            ),
        )
        estimator = NetworkPerformanceEstimator(design=DESIGN)
        estimate = estimator.estimate_network(model)
        assert 0.5 < estimate.utilization <= 1.0
        assert len(estimate.layers) == 2
        assert estimate.layers[0].count == 2
        assert estimate.total_ideal_cycles > 0
        assert estimate.worst_layer() is not None

    def test_layer_cache_reuses_crops(self):
        estimator = NetworkPerformanceEstimator(design=DESIGN)
        layer = GemmWorkload(name="cache_gemm", m=128, n=256, k=256)
        first = estimator.layer_utilization(layer)
        second = estimator.layer_utilization(layer)
        assert first.utilization == second.utilization

    def test_baseline_features_lower_estimate(self):
        layer = GemmWorkload(name="feat_gemm", m=64, n=64, k=64)
        full = NetworkPerformanceEstimator(design=DESIGN).layer_utilization(layer)
        base = NetworkPerformanceEstimator(
            design=DESIGN, features=FeatureSet.all_disabled()
        ).layer_utilization(layer)
        assert base.utilization < full.utilization
