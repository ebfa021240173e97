"""Failure-injection tests: the system surfaces misconfiguration loudly.

A cycle-level model is only trustworthy if broken configurations fail in
detectable ways instead of silently producing wrong numbers.  These tests
corrupt compiled programs in targeted ways and check that the system either
raises, deadlocks against the cycle budget, or produces results that the
numpy-oracle comparison rejects.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_workload
from repro.core import FeatureSet
from repro.sim import SimulationLimitError
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import GemmWorkload

DESIGN = datamaestro_evaluation_system()


@pytest.fixture(scope="module")
def system():
    return AcceleratorSystem(DESIGN)


def fresh_program(name, **workload_overrides):
    params = dict(m=16, n=16, k=16)
    params.update(workload_overrides)
    workload = GemmWorkload(name=name, **params)
    return compile_workload(workload, DESIGN, FeatureSet.all_enabled())


class TestConfigurationFaults:
    def test_too_few_streamed_words_deadlocks(self, system):
        """An AGU programmed with too few iterations starves the core."""
        program = fresh_program("fault_short_a")
        short_config = program.streamer_configs["A"].with_updates(
            temporal_bounds=(1, 1, 1)
        )
        program.streamer_configs["A"] = short_config
        from repro.core.csr import encode_runtime_config

        program.csr_writes["A"] = encode_runtime_config(
            DESIGN.streamer("A"), short_config, list(DESIGN.group_size_options())
        )
        with pytest.raises(SimulationLimitError) as excinfo:
            system.run(program, max_cycles=5_000)
        assert "fault_short_a" in str(excinfo.value)

    def test_wrong_base_address_detected_by_oracle(self, system):
        """Pointing the B stream at the wrong tensor yields a wrong result."""
        program = fresh_program("fault_wrong_base")
        wrong = program.streamer_configs["B"].with_updates(
            base_address=program.streamer_configs["A"].base_address
        )
        program.streamer_configs["B"] = wrong
        from repro.core.csr import encode_runtime_config

        program.csr_writes["B"] = encode_runtime_config(
            DESIGN.streamer("B"), wrong, list(DESIGN.group_size_options())
        )
        result = system.run(program)
        assert not system.verify_outputs(result)
        assert not np.array_equal(result.outputs["D"], program.expected_outputs["D"])

    @pytest.mark.parametrize("engine", ["event", "lockstep"])
    def test_out_of_range_stream_rejected_before_cycle_zero(self, system, engine):
        """A stream that would leave the scratchpad late fails at programming."""
        program = fresh_program("fault_out_of_range")
        config = program.streamer_configs["D"]
        # The first output tile still lands inside the memory; later ones do not.
        stray = config.with_updates(
            base_address=DESIGN.memory.capacity_bytes - 8 * DESIGN.streamer("D").num_channels
        )
        program.streamer_configs["D"] = stray
        from repro.core.csr import encode_runtime_config

        program.csr_writes["D"] = encode_runtime_config(
            DESIGN.streamer("D"), stray, list(DESIGN.group_size_options())
        )
        with pytest.raises(ValueError, match="D: programmed stream reaches address"):
            system.run(program, engine=engine)
        assert system.memory.cycle == 0 and system.memory.total_reads == 0

    def test_mismatched_addressing_mode_corrupts_data_not_timing(self, system):
        """Reading a region with the wrong RS decodes to the wrong banks."""
        program = fresh_program("fault_wrong_mode")
        wrong = program.streamer_configs["A"].with_updates(
            bank_group_size=DESIGN.memory.num_banks
        )
        program.streamer_configs["A"] = wrong
        from repro.core.csr import encode_runtime_config

        program.csr_writes["A"] = encode_runtime_config(
            DESIGN.streamer("A"), wrong, list(DESIGN.group_size_options())
        )
        result = system.run(program)
        assert not system.verify_outputs(result)

    def test_missing_port_configuration_rejected(self, system):
        """Dropping the B stream entirely must deadlock, not fabricate data."""
        program = fresh_program("fault_missing_port")
        del program.streamer_configs["B"]
        del program.csr_writes["B"]
        with pytest.raises(SimulationLimitError):
            system.run(program, max_cycles=2_000)

    def test_invalid_csr_image_rejected_at_configuration(self, system):
        program = fresh_program("fault_bad_csr")
        from repro.core.csr import CsrAddressMap

        csr_map = CsrAddressMap(DESIGN.streamer("A"))
        bad_writes = list(program.csr_writes["A"])
        bad_writes.append((csr_map.mode_offset, 99))
        program.csr_writes["A"] = bad_writes
        with pytest.raises(ValueError):
            system.run(program)


class TestBudgetAndRecovery:
    def test_system_recovers_after_a_failed_run(self, system):
        program = fresh_program("fault_recover_broken")
        del program.streamer_configs["B"]
        del program.csr_writes["B"]
        with pytest.raises(SimulationLimitError):
            system.run(program, max_cycles=1_000)
        # A subsequent healthy kernel runs to completion and verifies.
        healthy = fresh_program("fault_recover_ok")
        result = system.run(healthy)
        assert system.verify_outputs(result)

    def test_deadlock_report_names_the_stalled_ports(self, system):
        program = fresh_program("fault_report")
        del program.streamer_configs["B"]
        del program.csr_writes["B"]
        with pytest.raises(SimulationLimitError) as excinfo:
            system.run(program, max_cycles=1_000)
        detail = str(excinfo.value)
        assert "A:" in detail and "core tiles done" in detail

    def test_oracle_mismatch_reported_for_corrupted_memory(self, system):
        """Corrupting the scratchpad after the run is caught by verification."""
        program = fresh_program("fault_corrupt_mem")
        result = system.run(program)
        readback = program.readbacks["D"]
        system.memory.scratchpad.backdoor_write(
            readback.base_address,
            np.full(16, 0xFF, dtype=np.uint8),
            group_size=readback.group_size,
        )
        from repro.compiler import extract_outputs

        corrupted = extract_outputs(program, system.memory)
        assert not np.array_equal(corrupted["D"], program.expected_outputs["D"])
