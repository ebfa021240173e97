"""Cycle-level simulation primitives (FIFOs, streamer statistics, results)."""

from .fifo import Fifo, FifoError
from .result import (
    DEFAULT_CYCLE_BUDGET,
    DEFAULT_PROGRESS_INTERVAL,
    SimulationLimitError,
    SimulationResult,
)
from .stats import StreamerStats

__all__ = [
    "DEFAULT_CYCLE_BUDGET",
    "DEFAULT_PROGRESS_INTERVAL",
    "Fifo",
    "FifoError",
    "StreamerStats",
    "SimulationResult",
    "SimulationLimitError",
]
