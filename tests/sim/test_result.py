"""Tests for the simulation result containers and derived metrics."""

import pytest

from repro.sim import SimulationResult


def make_result(name="w", ideal=100, streaming=125, prepass=0, reads=10, writes=5):
    return SimulationResult(
        workload_name=name,
        ideal_compute_cycles=ideal,
        streaming_cycles=streaming,
        prepass_cycles=prepass,
        memory_reads=reads,
        memory_writes=writes,
    )


class TestSimulationResult:
    def test_utilization_definition(self):
        result = make_result(ideal=100, streaming=125)
        assert result.utilization == pytest.approx(0.8)

    def test_prepass_cycles_lower_utilization(self):
        without = make_result(ideal=100, streaming=100, prepass=0)
        with_prepass = make_result(ideal=100, streaming=100, prepass=100)
        assert without.utilization == pytest.approx(1.0)
        assert with_prepass.utilization == pytest.approx(0.5)
        assert with_prepass.kernel_cycles == 200

    def test_memory_access_total(self):
        result = make_result(reads=7, writes=3)
        assert result.memory_accesses == 10

    def test_throughput_normalization(self):
        result = make_result(ideal=100, streaming=100)
        # 512 PEs at 1 GHz with 100% utilization -> 1024 GOPS.
        assert result.throughput_gops(num_pes=512) == pytest.approx(1024.0)
        assert result.throughput_gops(num_pes=512, frequency_ghz=0.5) == pytest.approx(512.0)

    def test_zero_cycles_yields_zero_utilization(self):
        result = SimulationResult(
            workload_name="empty", ideal_compute_cycles=0, streaming_cycles=0
        )
        assert result.utilization == 0.0

    def test_as_dict_contains_core_fields(self):
        result = make_result()
        data = result.as_dict()
        assert data["workload"] == "w"
        assert data["kernel_cycles"] == result.kernel_cycles
        assert "utilization" in data
