"""Cycle-level simulation primitives (FIFOs, counters, results, runner)."""

from .fifo import Fifo, FifoError
from .result import (
    DEFAULT_CYCLE_BUDGET,
    RunSummary,
    SimulationLimitError,
    SimulationResult,
    weighted_utilization,
)
from .runner import (
    DEFAULT_PROGRESS_INTERVAL,
    CycleRunner,
    Steppable,
    run_to_completion,
)
from .stats import StatCounters, StreamerStats, merge_counter_dicts

__all__ = [
    "DEFAULT_CYCLE_BUDGET",
    "DEFAULT_PROGRESS_INTERVAL",
    "Fifo",
    "FifoError",
    "StatCounters",
    "StreamerStats",
    "merge_counter_dicts",
    "SimulationResult",
    "RunSummary",
    "SimulationLimitError",
    "weighted_utilization",
    "CycleRunner",
    "Steppable",
    "run_to_completion",
]
