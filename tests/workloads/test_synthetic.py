"""Tests for the synthetic ablation workload suite (paper §IV-B)."""

import pytest

from repro.workloads import (
    FULL_SUITE_COUNTS,
    WorkloadGroup,
    generate_conv_workloads,
    generate_gemm_workloads,
    stratified_subset,
    synthetic_suite,
)
from repro.workloads.generate import _SCRATCHPAD_BUDGET_BYTES


class TestSuiteGeneration:
    def test_full_suite_has_260_workloads(self):
        suite = synthetic_suite()
        assert sum(len(group) for group in suite.values()) == 260
        assert sum(FULL_SUITE_COUNTS.values()) == 260
        assert len(suite[WorkloadGroup.GEMM]) == FULL_SUITE_COUNTS[WorkloadGroup.GEMM]
        assert (
            len(suite[WorkloadGroup.TRANSPOSED_GEMM])
            == FULL_SUITE_COUNTS[WorkloadGroup.TRANSPOSED_GEMM]
        )
        assert (
            len(suite[WorkloadGroup.CONVOLUTION])
            == FULL_SUITE_COUNTS[WorkloadGroup.CONVOLUTION]
        )

    def test_generation_is_deterministic(self):
        first = synthetic_suite()
        second = synthetic_suite()
        for group in WorkloadGroup:
            assert [w.name for w in first[group]] == [w.name for w in second[group]]

    def test_workload_names_are_unique(self):
        suite = synthetic_suite()
        names = [w.name for group in suite.values() for w in group]
        assert len(names) == len(set(names))

    def test_groups_are_correctly_tagged(self):
        suite = synthetic_suite()
        for group, workloads in suite.items():
            assert all(w.group is group for w in workloads)

    def test_transposed_workloads_are_transposed(self):
        workloads = generate_gemm_workloads(10, transposed=True)
        assert all(w.transposed_a for w in workloads)

    def test_conv_suite_contains_strided_and_pointwise_layers(self):
        convs = generate_conv_workloads(80)
        assert any(w.is_strided for w in convs)
        assert any(w.is_pointwise for w in convs)
        assert any(w.kernel_h >= 5 for w in convs)

    def test_requesting_more_than_grid_raises(self):
        with pytest.raises(ValueError):
            generate_gemm_workloads(10_000)
        with pytest.raises(ValueError):
            generate_conv_workloads(10_000)

    def test_custom_counts(self):
        suite = synthetic_suite(
            {
                WorkloadGroup.GEMM: 5,
                WorkloadGroup.TRANSPOSED_GEMM: 3,
                WorkloadGroup.CONVOLUTION: 2,
            }
        )
        assert sum(len(group) for group in suite.values()) == 10


class TestMemoryFootprint:
    def test_gemm_workloads_fit_the_scratchpad_budget(self):
        """Every synthetic GeMM must fit even with the Broadcaster disabled."""
        for workload in generate_gemm_workloads(100):
            footprint = (
                workload.m * workload.k
                + workload.k * workload.n
                + 8 * workload.m * workload.n
                + 4 * workload.n
            )
            assert footprint <= _SCRATCHPAD_BUDGET_BYTES, workload.name

    def test_conv_workloads_fit_the_scratchpad_budget(self):
        for workload in generate_conv_workloads(80):
            weights = (
                workload.kernel_h
                * workload.kernel_w
                * max(workload.in_channels, 8)
                * max(workload.out_channels, 8)
            )
            tiles_m = workload.out_height * -(-workload.out_width // 8)
            tiles_n = -(-workload.out_channels // 8)
            footprint = (
                workload.in_height * (workload.in_width + 8) * max(workload.in_channels, 8)
                + weights
                + 2 * tiles_m * tiles_n * 256
            )
            assert footprint <= _SCRATCHPAD_BUDGET_BYTES, workload.name


class TestStratifiedSubset:
    def test_subset_size(self):
        workloads = generate_gemm_workloads(50)
        subset = stratified_subset(workloads, 10)
        assert len(subset) == 10

    def test_subset_spreads_over_the_grid(self):
        workloads = generate_gemm_workloads(50)
        subset = stratified_subset(workloads, 5)
        indices = [workloads.index(w) for w in subset]
        assert indices == sorted(indices)
        assert indices[0] < 10 and indices[-1] >= 40

    def test_subset_larger_than_population(self):
        workloads = generate_gemm_workloads(5)
        assert stratified_subset(workloads, 50) == workloads

    def test_zero_or_negative_count(self):
        workloads = generate_gemm_workloads(5)
        assert stratified_subset(workloads, 0) == []
        assert stratified_subset(workloads, -3) == []
