"""Tests for the host CSR driver and the DMA model."""

import numpy as np
import pytest

from repro.compiler import PrePass, TensorLoad, compile_workload
from repro.core import FeatureSet
from repro.core.streamer import DataMaestro
from repro.memory import MemorySubsystem
from repro.system import HostProcessor, datamaestro_evaluation_system
from repro.system.dma import Dma
from repro.system.system import AcceleratorSystem
from repro.workloads import GemmWorkload

DESIGN = datamaestro_evaluation_system()


class TestHostProcessor:
    def make_program(self):
        workload = GemmWorkload(name="host_gemm", m=16, n=16, k=16)
        return compile_workload(workload, DESIGN, FeatureSet.all_enabled())

    def test_csr_write_and_decode_roundtrip(self):
        program = self.make_program()
        host = HostProcessor(DESIGN)
        host.write_csrs("A", program.csr_writes["A"])
        decoded = host.decoded_config("A")
        original = program.streamer_configs["A"]
        assert decoded.base_address == original.base_address
        assert decoded.temporal_bounds == original.temporal_bounds
        assert decoded.temporal_strides == original.temporal_strides
        assert decoded.bank_group_size == original.bank_group_size

    def test_unprogrammed_port_raises(self):
        host = HostProcessor(DESIGN)
        with pytest.raises(KeyError):
            host.decoded_config("A")

    def test_program_streamer_configures_it(self):
        program = self.make_program()
        streamer = DataMaestro(
            DESIGN.streamer("A"), DESIGN.memory.geometry(), DESIGN.group_size_options()
        )
        host = HostProcessor(DESIGN)
        runtime = host.program_streamer(
            streamer, program.csr_writes["A"], program.features
        )
        assert streamer.configured
        assert runtime.total_iterations == program.ideal_compute_cycles
        # The system builds and programs the same way, per active port.
        system = AcceleratorSystem(DESIGN)
        system.load_program(program)
        assert system.streamers["A"].configured

    def test_statistics_and_clear(self):
        program = self.make_program()
        host = HostProcessor(DESIGN)
        host.write_csrs("A", program.csr_writes["A"])
        stats = host.statistics()
        assert stats["csr_writes_issued"] == len(program.csr_writes["A"])
        assert stats["ports_programmed"] == 1
        host.clear()
        assert host.statistics()["ports_programmed"] == 0


class TestDma:
    def make_memory(self):
        return MemorySubsystem(DESIGN.memory.geometry())

    def test_load_tensor_places_data(self):
        memory = self.make_memory()
        dma = Dma(memory, words_per_cycle=8)
        data = np.arange(128, dtype=np.uint8)
        cycles = dma.load_tensor(TensorLoad("A", 256, data, 64))
        assert cycles == 2  # 16 words at 8 words/cycle
        stored = memory.scratchpad.backdoor_read(256, 128, group_size=64)
        assert np.array_equal(stored, data)
        # Initial loads are not charged to the kernel's access counters.
        assert memory.total_reads == 0 and memory.total_writes == 0

    def test_prepass_charges_accesses_and_cycles(self):
        memory = self.make_memory()
        dma = Dma(memory, words_per_cycle=8)
        cycles = dma.execute_prepass(
            PrePass("software_transpose", word_reads=64, word_writes=64, cycles=8)
        )
        assert cycles == 8
        assert memory.total_reads == 64
        assert memory.total_writes == 64
        stats = dma.statistics()
        assert stats["prepass_cycles"] == 8
        assert stats["prepass_reads"] == 64

    def test_multiple_loads_accumulate(self):
        memory = self.make_memory()
        dma = Dma(memory, words_per_cycle=8)
        loads = [
            TensorLoad("A", 0, np.zeros(64, dtype=np.uint8), 64),
            TensorLoad("B", 4096, np.zeros(64, dtype=np.uint8), 64),
        ]
        dma.load_tensors(loads)
        assert dma.bytes_loaded == 128

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dma(self.make_memory(), words_per_cycle=0)
