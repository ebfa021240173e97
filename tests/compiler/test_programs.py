"""Tests for the compiled-program containers (TensorLoad, PrePass, program)."""

import numpy as np
import pytest

from repro.accelerators import GemmJob
from repro.compiler import KernelProgram, PrePass, ReadbackSpec, TensorLoad
from repro.core import FeatureSet, StreamerRuntimeConfig
from repro.workloads import GemmWorkload


def make_program(prepasses=(), quant=None):
    workload = GemmWorkload(name="prog", m=16, n=16, k=16)
    config = StreamerRuntimeConfig(
        base_address=0,
        temporal_bounds=(2,),
        temporal_strides=(64,),
        spatial_strides=(8,),
        bank_group_size=64,
    )
    return KernelProgram(
        workload=workload,
        features=FeatureSet.all_enabled(),
        job=GemmJob(2, 2, 2),
        streamer_configs={"A": config, "B": config},
        tensor_loads=[
            TensorLoad("A", 0, np.zeros(256, dtype=np.uint8), 64),
            TensorLoad("B", 512, np.zeros(128, dtype=np.uint8), 64),
        ],
        prepasses=list(prepasses),
        quant_config=quant,
        readbacks={"D": ReadbackSpec("D", 1024, 1024, 64)},
    )


class TestTensorLoad:
    def test_size(self):
        load = TensorLoad("A", 0, np.zeros(100, dtype=np.uint8), 64)
        assert load.size_bytes == 100


class TestPrePass:
    def test_word_accesses(self):
        """The DMA charges a pre-pass's word reads and writes to the memory."""
        from repro.memory import BankGeometry, MemorySubsystem
        from repro.system.dma import Dma

        memory = MemorySubsystem(BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=4))
        dma = Dma(memory, words_per_cycle=1)
        assert dma.execute_prepass(PrePass("p", word_reads=10, word_writes=20, cycles=5)) == 5
        assert (memory.total_reads, memory.total_writes) == (10, 20)
        assert (dma.prepass_reads, dma.prepass_writes) == (10, 20)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            PrePass("p", word_reads=-1, word_writes=0, cycles=0)


class TestKernelProgram:
    def test_basic_properties(self):
        program = make_program()
        assert program.name == "prog"
        assert program.ideal_compute_cycles == 8
        assert not program.uses_quantizer
        assert program.prepass_cycles == 0
        assert program.active_ports() == ["A", "B"]
        assert program.total_load_bytes() == 384

    def test_prepass_aggregation(self):
        program = make_program(
            prepasses=[
                PrePass("x", word_reads=4, word_writes=4, cycles=10),
                PrePass("y", word_reads=2, word_writes=2, cycles=5),
            ]
        )
        assert program.prepass_cycles == 15

    def test_describe(self):
        program = make_program()
        summary = program.describe()
        assert summary["tiles"] == (2, 2, 2)
        assert summary["quantized"] is False
        assert summary["prepasses"] == []
