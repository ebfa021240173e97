"""Cycle-level simulation primitives (FIFOs, counters, results)."""

from .fifo import Fifo, FifoError
from .result import (
    DEFAULT_CYCLE_BUDGET,
    DEFAULT_PROGRESS_INTERVAL,
    SimulationLimitError,
    SimulationResult,
)
from .stats import StatCounters, StreamerStats

__all__ = [
    "DEFAULT_CYCLE_BUDGET",
    "DEFAULT_PROGRESS_INTERVAL",
    "Fifo",
    "FifoError",
    "StatCounters",
    "StreamerStats",
    "SimulationResult",
    "SimulationLimitError",
]
