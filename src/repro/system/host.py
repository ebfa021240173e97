"""Host processor model: CSR programming and kernel launch sequencing.

The paper's evaluation system is controlled by a small RISC-V core whose only
duties in the reported experiments are to configure the DataMaestros and
accelerators through CSR writes, start the kernel, and wait for completion.
:class:`HostProcessor` reproduces that driver role: it takes the CSR write
lists emitted by the compiler, decodes them through the same
register-file layout a real driver would use, and programs the streaming
engines.  Instruction-level fidelity of the host is irrelevant to the
reported numbers (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.csr import decode_runtime_config
from ..core.params import FeatureSet, StreamerRuntimeConfig
from ..core.streamer import DataMaestro
from ..system.design import AcceleratorSystemDesign


class HostProcessor:
    """CSR-level driver for the DataMaestro evaluation system."""

    def __init__(self, design: AcceleratorSystemDesign) -> None:
        self.design = design
        self.csr_images: Dict[str, Dict[int, int]] = {}
        self.csr_writes_issued = 0
        #: The RS options every port decodes its addressing mode against.
        self._group_size_options = list(design.group_size_options())

    # ------------------------------------------------------------------
    def write_csrs(self, port: str, writes: List[Tuple[int, int]]) -> None:
        """Apply a list of (offset, value) CSR writes for one port."""
        image = self.csr_images.setdefault(port, {})
        for offset, value in writes:
            image[offset] = int(value)
        self.csr_writes_issued += len(writes)

    def decoded_config(self, port: str) -> StreamerRuntimeConfig:
        """Decode the currently programmed register image of one port."""
        if port not in self.csr_images:
            raise KeyError(f"port {port!r} has not been programmed")
        return decode_runtime_config(
            self.design.streamer(port), self.csr_images[port], self._group_size_options
        )

    def program_streamer(
        self,
        streamer: DataMaestro,
        writes: List[Tuple[int, int]],
        features: FeatureSet,
    ) -> StreamerRuntimeConfig:
        """Write CSRs and launch-configure one DataMaestro."""
        port = streamer.name
        self.write_csrs(port, writes)
        runtime = self.decoded_config(port)
        streamer.configure(
            runtime, prefetch_enabled=features.fine_grained_prefetch
        )
        return runtime

    def clear(self) -> None:
        """Forget all programmed register images (between kernels)."""
        self.csr_images.clear()

    def statistics(self) -> dict:
        return {
            "csr_writes_issued": self.csr_writes_issued,
            "ports_programmed": len(self.csr_images),
        }
