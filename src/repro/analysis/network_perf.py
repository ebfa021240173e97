"""Network-level performance estimation (paper §IV-C, Table III).

The paper benchmarks four full DNNs on the FPGA prototype and reports the
GeMM-core utilization of each network.  Cycle-simulating every full-size
layer in pure Python would take hours, so this module uses the approach
documented in DESIGN.md: every *unique* layer is reduced to a representative
crop that preserves the properties governing its steady-state utilization
(channel counts modulo the PE tiling, kernel size, stride, operand layouts),
the crop is cycle-simulated on the real system model, and the measured
utilization is applied to the full layer's ideal cycle count.  The network
utilization is then the compute-weighted aggregate over all layers — the same
definition the paper uses (theoretical cycles over active cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.params import FeatureSet
from ..engine import DEFAULT_ENGINE
from ..runtime.job import SimJob
from ..runtime.simulator import Simulator
from ..system.design import AcceleratorSystemDesign, datamaestro_evaluation_system
from ..workloads.networks import NetworkModel
from ..workloads.spec import ConvWorkload, GemmWorkload, Workload


# ----------------------------------------------------------------------
# Representative crops.
# ----------------------------------------------------------------------
def representative_crop(
    workload: Workload,
    max_gemm_m: int = 64,
    max_gemm_n: int = 64,
    max_gemm_k: int = 128,
    max_conv_out: int = 14,
    max_conv_channels: int = 32,
) -> Workload:
    """Scale a layer down to a crop with the same steady-state behaviour.

    The crop preserves kernel size, stride, padding, operand dtypes and the
    *residues* of the channel dimensions with respect to the PE tiling
    (by capping at multiples of the tile sizes), which are what determine
    per-tile access patterns and therefore utilization; only the number of
    repeated tiles is reduced.
    """
    if isinstance(workload, GemmWorkload):
        return workload.scaled(
            name=f"{workload.name}__crop",
            m=min(workload.m, max_gemm_m),
            n=min(workload.n, max_gemm_n),
            k=min(workload.k, max_gemm_k),
        )
    if isinstance(workload, ConvWorkload):
        out_h = min(workload.out_height, max_conv_out)
        out_w = min(workload.out_width, max_conv_out)
        new_in_h = (out_h - 1) * workload.stride + workload.kernel_h - 2 * workload.padding
        new_in_w = (out_w - 1) * workload.stride + workload.kernel_w - 2 * workload.padding
        new_in_h = max(new_in_h, workload.kernel_h)
        new_in_w = max(new_in_w, workload.kernel_w)
        return workload.scaled(
            name=f"{workload.name}__crop",
            in_height=min(workload.in_height, new_in_h),
            in_width=min(workload.in_width, new_in_w),
            in_channels=min(workload.in_channels, max_conv_channels),
            out_channels=min(workload.out_channels, max_conv_channels),
        )
    raise TypeError(f"unsupported workload type {type(workload)!r}")


# ----------------------------------------------------------------------
# Per-layer and per-network estimation.
# ----------------------------------------------------------------------
@dataclass
class LayerEstimate:
    """Utilization estimate of one unique layer."""

    name: str
    group: str
    count: int
    ideal_cycles_full: int
    utilization: float
    crop_name: str
    crop_cycles: int

    @property
    def estimated_cycles_full(self) -> float:
        return self.ideal_cycles_full / max(self.utilization, 1e-9)


@dataclass
class NetworkEstimate:
    """Aggregated utilization of one network (one Table III column)."""

    network: str
    kind: str
    layers: List[LayerEstimate] = field(default_factory=list)

    @property
    def total_ideal_cycles(self) -> float:
        return float(
            sum(layer.ideal_cycles_full * layer.count for layer in self.layers)
        )

    @property
    def total_estimated_cycles(self) -> float:
        return float(
            sum(layer.estimated_cycles_full * layer.count for layer in self.layers)
        )

    @property
    def utilization(self) -> float:
        total = self.total_estimated_cycles
        if total <= 0:
            return 0.0
        return self.total_ideal_cycles / total

    @property
    def utilization_percent(self) -> float:
        return 100.0 * self.utilization

    def worst_layer(self) -> Optional[LayerEstimate]:
        if not self.layers:
            return None
        return min(self.layers, key=lambda layer: layer.utilization)


class NetworkPerformanceEstimator:
    """Estimates Table III by cycle-simulating representative layer crops."""

    def __init__(
        self,
        design: Optional[AcceleratorSystemDesign] = None,
        features: Optional[FeatureSet] = None,
        seed: int = 0,
        simulator: Optional[Simulator] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.design = design or datamaestro_evaluation_system()
        self.features = features or FeatureSet.all_enabled()
        self.simulator = simulator or Simulator()
        self.seed = seed
        self.engine = engine
        self._cache: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _ideal_cycles(self, workload: Workload) -> int:
        return workload.ideal_compute_cycles(
            self.design.gemm_mu, self.design.gemm_nu, self.design.gemm_ku
        )

    def layer_utilization(self, workload: Workload) -> LayerEstimate:
        """Measure the utilization of one layer via its representative crop."""
        crop = representative_crop(workload)
        cached = self._cache.get(crop.name)
        if cached is None:
            outcome = self.simulator.simulate(
                SimJob(
                    workload=crop,
                    design=self.design,
                    features=self.features,
                    seed=self.seed,
                    engine=self.engine,
                    label=f"crop:{workload.name}",
                )
            )
            cached = outcome.utilization
            self._cache[crop.name] = cached
            crop_cycles = outcome.kernel_cycles
        else:
            crop_cycles = int(round(self._ideal_cycles(crop) / max(cached, 1e-9)))
        return LayerEstimate(
            name=workload.name,
            group=workload.group.value,
            count=1,
            ideal_cycles_full=self._ideal_cycles(workload),
            utilization=cached,
            crop_name=crop.name,
            crop_cycles=crop_cycles,
        )

    def estimate_network(self, model: NetworkModel) -> NetworkEstimate:
        """Estimate the GeMM-core utilization of one network."""
        estimate = NetworkEstimate(network=model.name, kind=model.kind)
        for layer in model.layers:
            layer_estimate = self.layer_utilization(layer.workload)
            layer_estimate.count = layer.count
            estimate.layers.append(layer_estimate)
        return estimate

    def estimate_networks(
        self, models: Dict[str, NetworkModel]
    ) -> Dict[str, NetworkEstimate]:
        return {name: self.estimate_network(model) for name, model in models.items()}
