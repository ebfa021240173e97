"""Design-time description of the DataMaestro evaluation system (Fig. 6).

The paper's evaluation platform couples five DataMaestros (ports A–E) with a
Tensor-Core-like GeMM accelerator, a quantization accelerator, a 128 KiB
multi-banked scratchpad and a RISC-V host.  This module captures that
platform as a plain data object (:class:`AcceleratorSystemDesign`) consumed
by both the compiler (to generate runtime configurations) and the system
builder (to instantiate the cycle-level model).

Port roles:

========  =====  ======================================================
Port      Mode   Stream
========  =====  ======================================================
``A``     read   left operand (GeMM A tiles / implicitly-im2col-ed input)
``B``     read   right operand (GeMM B tiles / convolution weights)
``C``     read   accumulator initialisation (bias / partial sums)
``D``     write  int32 results back to memory
``E``     write  int8 quantized results (output of the quantizer)
========  =====  ======================================================

The design-time parameters follow the paper's Figure 6 with two documented
deviations (see DESIGN.md): the scratchpad is organised as 64 × 64-bit banks
(128 KiB total) instead of the paper's much finer banking, and ports B–E are
instantiated with enough temporal dimensions to express the convolution
weight/output walks directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..core.params import (
    ExtensionSpec,
    MemoryDesign,
    StreamerDesign,
    StreamerMode,
    validate_streamer_designs,
)

#: Canonical port names in the evaluation system.
PORT_NAMES = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class AcceleratorSystemDesign:
    """Everything fixed at hardware-generation time for one system."""

    name: str
    memory: MemoryDesign
    streamers: Tuple[StreamerDesign, ...]
    gemm_mu: int = 8
    gemm_nu: int = 8
    gemm_ku: int = 8
    dma_words_per_cycle: int = 8
    clock_frequency_ghz: float = 1.0

    def __post_init__(self) -> None:
        validate_streamer_designs(self.streamers, self.memory)
        if self.gemm_mu <= 0 or self.gemm_nu <= 0 or self.gemm_ku <= 0:
            raise ValueError("GeMM array dimensions must be positive")
        if self.dma_words_per_cycle <= 0:
            raise ValueError("dma_words_per_cycle must be positive")

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.gemm_mu * self.gemm_nu * self.gemm_ku

    def streamer(self, name: str) -> StreamerDesign:
        for design in self.streamers:
            if design.name == name:
                return design
        raise KeyError(f"no streamer named {name!r} in system {self.name!r}")

    def group_size_options(self) -> Tuple[int, ...]:
        return self.memory.resolved_group_options()


def datamaestro_evaluation_system(
    scratchpad_kib: int = 128,
    num_banks: int = 64,
    gima_group_size: int = 16,
) -> AcceleratorSystemDesign:
    """Build the five-DataMaestro evaluation system of the paper's Fig. 6."""
    memory = MemoryDesign(
        num_banks=num_banks,
        bank_width_bits=64,
        capacity_bytes=scratchpad_kib * 1024,
        group_size_options=(num_banks, gima_group_size, 1),
        read_latency=1,
    )
    streamers = (
        StreamerDesign(
            name="A",
            mode=StreamerMode.READ,
            num_channels=8,
            spatial_bounds=(8,),
            temporal_dims=6,
            bank_width_bits=64,
            address_buffer_depth=8,
            data_buffer_depth=8,
            extensions=(
                ExtensionSpec.make("transposer", rows=8, cols=8, element_bytes=1),
            ),
        ),
        StreamerDesign(
            name="B",
            mode=StreamerMode.READ,
            num_channels=8,
            spatial_bounds=(8,),
            temporal_dims=6,
            bank_width_bits=64,
            address_buffer_depth=8,
            data_buffer_depth=8,
        ),
        StreamerDesign(
            name="C",
            mode=StreamerMode.READ,
            num_channels=32,
            spatial_bounds=(8, 4),
            temporal_dims=4,
            bank_width_bits=64,
            address_buffer_depth=4,
            data_buffer_depth=1,
            extensions=(ExtensionSpec.make("broadcaster", factor=1),),
        ),
        StreamerDesign(
            name="D",
            mode=StreamerMode.WRITE,
            num_channels=32,
            spatial_bounds=(8, 4),
            temporal_dims=4,
            bank_width_bits=64,
            address_buffer_depth=4,
            data_buffer_depth=1,
        ),
        StreamerDesign(
            name="E",
            mode=StreamerMode.WRITE,
            num_channels=8,
            spatial_bounds=(8,),
            temporal_dims=4,
            bank_width_bits=64,
            address_buffer_depth=4,
            data_buffer_depth=1,
        ),
    )
    return AcceleratorSystemDesign(
        name="datamaestro_evaluation_system",
        memory=memory,
        streamers=streamers,
        gemm_mu=8,
        gemm_nu=8,
        gemm_ku=8,
        dma_words_per_cycle=8,
        clock_frequency_ghz=1.0,
    )


def validate_port_widths(design: AcceleratorSystemDesign) -> None:
    """Check that every port's wide word matches the GeMM core tile sizes."""
    expected = {
        "A": design.gemm_mu * design.gemm_ku,
        "B": design.gemm_ku * design.gemm_nu,
        "C": design.gemm_mu * design.gemm_nu * 4,
        "D": design.gemm_mu * design.gemm_nu * 4,
        "E": design.gemm_mu * design.gemm_nu,
    }
    for port, word_bytes in expected.items():
        streamer = design.streamer(port)
        if streamer.word_bytes != word_bytes:
            raise ValueError(
                f"port {port}: streamer word is {streamer.word_bytes} B but the "
                f"{design.gemm_mu}x{design.gemm_nu}x{design.gemm_ku} GeMM core "
                f"needs {word_bytes} B"
            )
