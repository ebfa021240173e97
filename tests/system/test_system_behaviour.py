"""System-level behavioural tests beyond functional correctness."""

import numpy as np
import pytest

from repro.compiler import compile_workload
from repro.core import FeatureSet
from repro.sim import SimulationLimitError
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload

DESIGN = datamaestro_evaluation_system()


@pytest.fixture(scope="module")
def system():
    return AcceleratorSystem(DESIGN)


class TestRunMechanics:
    def test_run_is_deterministic(self, system):
        workload = GemmWorkload(name="sys_det", m=24, n=24, k=24)
        program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
        first = system.run(program)
        second = system.run(program)
        assert first.kernel_cycles == second.kernel_cycles
        assert first.memory_accesses == second.memory_accesses
        assert np.array_equal(first.outputs["D"], second.outputs["D"])

    def test_back_to_back_kernels_do_not_interfere(self, system):
        small = compile_workload(
            GemmWorkload(name="sys_small", m=16, n=16, k=16), DESIGN
        )
        large = compile_workload(
            GemmWorkload(name="sys_large", m=32, n=32, k=32), DESIGN
        )
        result_large = system.run(large)
        result_small = system.run(small)
        assert np.array_equal(result_small.outputs["D"], small.expected_outputs["D"])
        assert np.array_equal(result_large.outputs["D"], large.expected_outputs["D"])

    def test_system_is_built_once_per_job(self, monkeypatch):
        """A new system is fresh: only a second kernel on it rebuilds."""
        builds = []
        reset = AcceleratorSystem.reset
        monkeypatch.setattr(
            AcceleratorSystem, "reset", lambda self: builds.append(1) or reset(self)
        )
        program = compile_workload(
            GemmWorkload(name="sys_build", m=16, n=16, k=24), DESIGN
        )
        reused = AcceleratorSystem(DESIGN)
        first = reused.run(program)
        assert len(builds) == 1
        second = reused.run(program)
        assert len(builds) == 2
        assert first.as_dict() == second.as_dict()
        assert first.streamer_stats == second.streamer_stats
        assert np.array_equal(first.outputs["D"], second.outputs["D"])
        assert np.array_equal(first.outputs["D"], program.expected_outputs["D"])

    def test_cycle_budget_enforced(self, system):
        program = compile_workload(
            GemmWorkload(name="sys_budget", m=32, n=32, k=32), DESIGN
        )
        with pytest.raises(SimulationLimitError):
            system.run(program, max_cycles=10)

    def test_step_without_program_is_noop(self):
        fresh = AcceleratorSystem(DESIGN)
        assert fresh.finished
        assert not fresh.step()
        assert fresh.streamers == {}

    def test_one_streamer_per_active_port(self):
        """A GeMM without bias uses A, B and D: C and E are never built."""
        program = compile_workload(
            GemmWorkload(name="sys_ports", m=16, n=16, k=16, with_bias=False), DESIGN
        )
        system = AcceleratorSystem(DESIGN)
        result = system.run(program)
        assert program.active_ports() == ["A", "B", "D"]
        assert list(system.streamers) == ["A", "B", "D"]
        assert sorted(result.streamer_stats) == ["A", "B", "D"]
        assert system.gemm_core.c_stream is None
        assert np.array_equal(result.outputs["D"], program.expected_outputs["D"])

    def test_inactive_channels_bind_no_port(self):
        """The broadcast bias row is fetched by 4 of C's 32 channels: only
        those 4 are built, bound and registered, and the statistics are the
        ones the design read before inactive channels stopped being built
        (28 all-zero rows included)."""
        program = compile_workload(GemmWorkload("bias_gemm", 16, 16, 32), DESIGN)
        system = AcceleratorSystem(DESIGN)
        system.load_program(program)
        stream = system.streamers["C"]
        active = [f"C.ch{index}" for index in range(4)]
        assert program.streamer_configs["C"].active_channels == 4
        assert [port.name for port in stream.ports] == active
        for port, fifo in zip(stream.ports, stream.fifos, strict=True):
            assert port.sink is fifo and not port.registered
        system.run(program)  # loads the program afresh
        stream = system.streamers["C"]
        assert [name for name in system.memory._requesters if name[0] == "C"] == active

        assert stream.statistics(system.memory).as_dict() == {
            "words_streamed": 4,
            "requests_issued": 16,
            "requests_granted": 16,
            "bank_conflict_retries": 0,
            "stall_cycles": 0,
            "active_cycles": 0,
            "extension_broadcaster_0_processed": 4,
            "extension_broadcaster_0_bypassed": 0,
        }
        rows = stream.channel_statistics()
        assert list(rows) == [f"C.ch{index}" for index in range(32)]
        busy = {
            "requests_issued": 4,
            "responses_received": 4,
            "credit_stall_cycles": 6,
            "max_data_occupancy": 1,
            "max_addr_occupancy": 2,
        }
        assert [rows[name] for name in active] == [busy] * 4
        assert all(
            row == dict.fromkeys(busy, 0) for name, row in rows.items() if name not in active
        )

    def test_metadata_recorded(self, system):
        workload = ConvWorkload(
            name="sys_meta",
            in_height=8,
            in_width=8,
            in_channels=8,
            out_channels=8,
            kernel_h=3,
            kernel_w=3,
        )
        program = compile_workload(workload, DESIGN)
        result = system.run(program)
        assert result.metadata["workload_group"] == "convolution"
        assert result.metadata["active_ports"] == ["A", "B", "C", "D"]
        assert result.metadata["features"]["fine_grained_prefetch"]


class TestArchitecturalEffects:
    def test_prefetch_reduces_stall_cycles(self, system):
        workload = GemmWorkload(name="sys_prefetch", m=32, n=32, k=32)
        on = system.run(compile_workload(workload, DESIGN, FeatureSet.all_enabled()))
        off = system.run(
            compile_workload(
                workload,
                DESIGN,
                FeatureSet.all_enabled().with_updates(fine_grained_prefetch=False),
            )
        )
        assert off.counters["gemm_stall_cycles"] > on.counters["gemm_stall_cycles"]
        assert off.kernel_cycles > on.kernel_cycles

    def test_addressing_mode_switching_reduces_conflicts(self, system):
        workload = GemmWorkload(name="sys_addr", m=64, n=64, k=64)
        switched = system.run(compile_workload(workload, DESIGN, FeatureSet.all_enabled()))
        flat = system.run(
            compile_workload(
                workload,
                DESIGN,
                FeatureSet.all_enabled().with_updates(addressing_mode_switching=False),
            )
        )
        assert switched.utilization >= flat.utilization
        assert np.array_equal(switched.outputs["D"], flat.outputs["D"])

    def test_write_volume_matches_output_size(self, system):
        workload = GemmWorkload(name="sys_writes", m=16, n=16, k=16, with_bias=False)
        program = compile_workload(workload, DESIGN)
        result = system.run(program)
        # D writes: 2x2 tiles x 32 words per tile.
        assert result.memory_writes == 2 * 2 * 32

    def test_read_volume_matches_streamed_words(self, system):
        workload = GemmWorkload(name="sys_reads", m=16, n=16, k=16, with_bias=False)
        program = compile_workload(workload, DESIGN)
        result = system.run(program)
        # A and B each stream 8 words per compute step.
        assert result.memory_reads == 2 * 8 * program.ideal_compute_cycles

    def test_quantized_path_writes_int8_volume(self, system):
        workload = GemmWorkload(name="sys_quant", m=16, n=16, k=16, quantize=True)
        program = compile_workload(workload, DESIGN)
        result = system.run(program)
        assert result.counters["quantizer_tiles"] == program.job.output_tiles
        # E writes: 8 words per output tile instead of 32.
        assert result.memory_writes == program.job.output_tiles * 8

    def test_verify_outputs_detects_corruption(self, system):
        workload = GemmWorkload(name="sys_verify", m=16, n=16, k=16)
        program = compile_workload(workload, DESIGN)
        result = system.run(program)
        assert system.verify_outputs(result)
        result.outputs["D"][0, 0] += 1
        assert not system.verify_outputs(result)
