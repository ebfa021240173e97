"""Simulation result containers.

A kernel simulation produces three kinds of information:

* timing — how many cycles the kernel took, split into the streaming phase
  and any explicit pre-passes (software transpose / im2col performed by the
  DMA when the corresponding DataMaestro feature is disabled);
* activity — scratchpad word accesses, bank conflicts, per-streamer stall
  and active cycles;
* functional output — the tensors written back to the scratchpad, so the
  result can be checked against a numpy oracle.

:class:`SimulationResult` gathers all of it in one immutable-ish record with
the derived metrics (utilization, throughput) the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .stats import StreamerStats

#: Default cycle budget of :meth:`repro.system.system.AcceleratorSystem.run`
#: and :class:`~repro.runtime.job.SimJob`.  Exceeding the budget raises
#: :class:`SimulationLimitError`, whose ``detail`` carries the deadlock
#: report.
DEFAULT_CYCLE_BUDGET = 10_000_000

#: Default cycle cadence of cooperative progress callbacks, shared by
#: every surface that accepts one (AcceleratorSystem.run, the engine
#: protocol and the runtime backends).
DEFAULT_PROGRESS_INTERVAL = 100_000


@dataclass
class SimulationResult:
    """Outcome of running one kernel on the cycle-level system model."""

    workload_name: str
    ideal_compute_cycles: int
    streaming_cycles: int
    prepass_cycles: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    bank_conflicts: int = 0
    streamer_stats: Dict[str, StreamerStats] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics.
    # ------------------------------------------------------------------
    @property
    def kernel_cycles(self) -> int:
        """Total cycles attributed to the kernel (pre-passes + streaming)."""
        return self.prepass_cycles + self.streaming_cycles

    @property
    def memory_accesses(self) -> int:
        """Total scratchpad word accesses (reads + writes)."""
        return self.memory_reads + self.memory_writes

    @property
    def utilization(self) -> float:
        """PE-array utilization as defined in the paper (§IV-C, Table III).

        Ratio of theoretical computation cycles without memory stalls to the
        cycles the accelerator/DataMaestros were actually active.
        """
        if self.kernel_cycles <= 0:
            return 0.0
        return self.ideal_compute_cycles / self.kernel_cycles

    def throughput_gops(self, num_pes: int, frequency_ghz: float = 1.0) -> float:
        """Normalized throughput in GOPS (2 ops per MAC), Figure 10 style."""
        return 2.0 * num_pes * frequency_ghz * self.utilization

    def as_dict(self) -> Dict[str, Any]:
        """Flatten the result into a plain dictionary for reports."""
        data: Dict[str, Any] = {
            "workload": self.workload_name,
            "ideal_compute_cycles": self.ideal_compute_cycles,
            "streaming_cycles": self.streaming_cycles,
            "prepass_cycles": self.prepass_cycles,
            "kernel_cycles": self.kernel_cycles,
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "memory_accesses": self.memory_accesses,
            "bank_conflicts": self.bank_conflicts,
            "utilization": self.utilization,
        }
        data.update({f"counter_{k}": v for k, v in self.counters.items()})
        return data


class SteadyBail(Exception):
    """A steady-span precondition failed (its reason is the first argument;
    a ``too_short`` bail's second names the bound that ended it): the
    planner counts the reason and the cycle loop steps on, nothing mutated.
    Components raise it from their steady-span checks (``docs/ENGINE.md``)."""


@dataclass
class SimulationLimitError(RuntimeError):
    """Raised when a simulation exceeds its cycle budget (likely deadlock)."""

    message: str
    cycles: int = 0
    detail: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.message} after {self.cycles} cycles{extra}"
