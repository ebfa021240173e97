"""Uniform simulation outcomes returned by every runtime backend.

Whatever executes a :class:`~repro.runtime.job.SimJob` — the cycle-level
DataMaestro system or an analytic baseline model — callers receive the same
:class:`SimOutcome` record: the headline metrics every experiment consumes
(utilization, cycles, memory activity), the full cycle-level
:class:`~repro.sim.result.SimulationResult` when one exists, and provenance
describing exactly how the numbers were produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..sim.result import SimulationResult
from .job import SimJob


def _job_provenance(job: SimJob) -> Dict[str, Any]:
    from .. import __version__

    return {
        "package_version": __version__,
        "backend": job.backend,
        "engine": job.engine,
        "design": job.design.name,
        "features": job.features.as_dict(),
        "seed": job.seed,
        "label": job.label,
    }


@dataclass
class SimOutcome:
    """Result of one simulation job, uniform across backends.

    Outcomes are shared read-only: every coalesced waiter of one execution
    receives the same object, and so does every hit on one held
    :class:`~repro.runtime.cache.ResultCache` entry (flagged
    ``cache_hit``) — never the object the executing caller got.
    """

    job_hash: str
    backend: str
    workload_name: str
    workload_group: str
    utilization: float
    kernel_cycles: int
    ideal_compute_cycles: int
    prepass_cycles: int = 0
    memory_accesses: int = 0
    bank_conflicts: int = 0
    #: Derived / backend-specific metrics (e.g. ``functional_match``).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Full cycle-level result; ``None`` for analytic backends.
    result: Optional[SimulationResult] = None
    #: How the numbers were produced (package version, backend, seed, ...).
    provenance: Dict[str, Any] = field(default_factory=dict)
    #: Set by the runtime when the outcome was served from the result cache.
    cache_hit: bool = field(default=False, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        job: SimJob,
        result: SimulationResult,
        **metrics: Any,
    ) -> "SimOutcome":
        """Wrap a cycle-level :class:`SimulationResult` for ``job``."""
        return cls(
            job_hash=job.job_hash(),
            backend=job.backend,
            workload_name=job.workload.name,
            workload_group=job.workload.group.value,
            utilization=result.utilization,
            kernel_cycles=result.kernel_cycles,
            ideal_compute_cycles=result.ideal_compute_cycles,
            prepass_cycles=result.prepass_cycles,
            memory_accesses=result.memory_accesses,
            bank_conflicts=result.bank_conflicts,
            metrics=dict(metrics),
            result=result,
            provenance=_job_provenance(job),
        )

    @classmethod
    def analytic(
        cls,
        job: SimJob,
        utilization: float,
        ideal_compute_cycles: int,
        **metrics: Any,
    ) -> "SimOutcome":
        """Build an outcome from an analytic utilization estimate."""
        kernel_cycles = (
            round(ideal_compute_cycles / utilization) if utilization > 0 else 0
        )
        return cls(
            job_hash=job.job_hash(),
            backend=job.backend,
            workload_name=job.workload.name,
            workload_group=job.workload.group.value,
            utilization=utilization,
            kernel_cycles=kernel_cycles,
            ideal_compute_cycles=ideal_compute_cycles,
            metrics={"analytic": True, **metrics},
            result=None,
            provenance=_job_provenance(job),
        )

    # ------------------------------------------------------------------
    def throughput_gops(self, num_pes: int, frequency_ghz: float = 1.0) -> float:
        """Normalized throughput in GOPS (2 ops per MAC), Figure 10 style."""
        return 2.0 * num_pes * frequency_ghz * self.utilization

    @property
    def functional_match(self) -> Optional[bool]:
        """Outputs-vs-oracle verdict, if the backend verified them."""
        return self.metrics.get("functional_match")

    def as_dict(self) -> Dict[str, Any]:
        """Flatten the headline metrics for tabular reports."""
        return {
            "workload": self.workload_name,
            "group": self.workload_group,
            "backend": self.backend,
            "utilization": self.utilization,
            "kernel_cycles": self.kernel_cycles,
            "ideal_compute_cycles": self.ideal_compute_cycles,
            "prepass_cycles": self.prepass_cycles,
            "memory_accesses": self.memory_accesses,
            "bank_conflicts": self.bank_conflicts,
            "cache_hit": self.cache_hit,
            "job_hash": self.job_hash,
        }
