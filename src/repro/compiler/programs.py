"""Compiled kernel programs: what the compiler hands to the host/system.

A :class:`KernelProgram` bundles everything one kernel launch needs:

* the initial tensor images to place in the scratchpad (via DMA, uncounted —
  identical for every architecture configuration);
* the explicit data-manipulation *pre-passes* a feature-disabled
  configuration requires (software transpose, software im2col, bias
  materialisation), with their word-access and cycle costs;
* the runtime configuration of every DataMaestro port, in both structured
  (:class:`~repro.core.params.StreamerRuntimeConfig`) and CSR-write form;
* the GeMM-core job and optional quantizer configuration;
* where to read results back from and what the numpy oracle expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..accelerators.gemm_core import GemmJob
from ..accelerators.quantizer import QuantizationConfig
from ..core.params import FeatureSet, StreamerRuntimeConfig
from ..workloads.spec import Workload


@dataclass(frozen=True)
class TensorLoad:
    """One tensor image to place into the scratchpad before launch."""

    name: str
    base_address: int
    data: np.ndarray
    group_size: int

    @property
    def size_bytes(self) -> int:
        return int(self.data.size)


@dataclass(frozen=True)
class PrePass:
    """An explicit data-manipulation pass required when a feature is off.

    The pass is executed by the DMA through the scratchpad before streaming
    starts; its cost is charged to the kernel (cycles and word accesses),
    which is exactly the overhead the corresponding on-the-fly DataMaestro
    feature eliminates.
    """

    name: str
    word_reads: int
    word_writes: int
    cycles: int

    def __post_init__(self) -> None:
        if self.word_reads < 0 or self.word_writes < 0 or self.cycles < 0:
            raise ValueError("pre-pass costs must be non-negative")


@dataclass(frozen=True)
class ReadbackSpec:
    """Where an output tensor lives in the scratchpad after the kernel, and
    the element type and logical shape its blocked image was laid out from
    (all :func:`~repro.compiler.layout.unpack_tiles` needs to recover it)."""

    name: str
    base_address: int
    size_bytes: int
    group_size: int
    dtype: str = "int32"
    shape: Tuple[int, ...] = ()


@dataclass
class KernelProgram:
    """A fully lowered kernel, ready to run on the evaluation system."""

    workload: Workload
    features: FeatureSet
    job: GemmJob
    streamer_configs: Dict[str, StreamerRuntimeConfig]
    csr_writes: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    tensor_loads: List[TensorLoad] = field(default_factory=list)
    prepasses: List[PrePass] = field(default_factory=list)
    quant_config: Optional[QuantizationConfig] = None
    readbacks: Dict[str, ReadbackSpec] = field(default_factory=dict)
    expected_outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def ideal_compute_cycles(self) -> int:
        return self.job.ideal_compute_cycles

    @property
    def uses_quantizer(self) -> bool:
        return self.quant_config is not None

    @property
    def prepass_cycles(self) -> int:
        return sum(prepass.cycles for prepass in self.prepasses)

    def active_ports(self) -> List[str]:
        """The DataMaestro ports this program uses, in canonical order."""
        return sorted(self.streamer_configs.keys())

    def total_load_bytes(self) -> int:
        return sum(load.size_bytes for load in self.tensor_loads)

    def describe(self) -> Dict[str, object]:
        """Human-readable summary used by examples and reports."""
        return {
            "workload": self.workload.name,
            "group": self.workload.group.value,
            "features": self.features.as_dict(),
            "tiles": (self.job.tiles_m, self.job.tiles_n, self.job.tiles_k),
            "ideal_compute_cycles": self.ideal_compute_cycles,
            "active_ports": self.active_ports(),
            "prepasses": [prepass.name for prepass in self.prepasses],
            "quantized": self.uses_quantizer,
            "scratchpad_bytes_loaded": self.total_load_bytes(),
        }
