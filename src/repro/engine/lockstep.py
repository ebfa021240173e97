"""The legacy lockstep loop: one ``step()`` call per simulated clock cycle.

Kept as the parity reference for the event-driven scheduler
(:mod:`repro.engine.event`): it executes every cycle unconditionally, so its
results define the ground truth the event engine must reproduce exactly.
Select it with ``engine="lockstep"`` anywhere an engine can be chosen.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..sim.result import DEFAULT_PROGRESS_INTERVAL
from .base import LOCKSTEP_ENGINE, SimulationEngine


class LockstepEngine(SimulationEngine):
    """Drives a ``step()`` target one cycle at a time, every cycle."""

    name = LOCKSTEP_ENGINE

    def drive(
        self,
        target,
        max_cycles: int,
        describe: str = "simulation",
        detail: Optional[Union[str, Callable[[], str]]] = None,
        progress_callback: Optional[Callable[[int], None]] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> int:
        cycles = 0
        busy = True
        while busy:
            if cycles >= max_cycles:
                raise self._budget_error(describe, cycles, max_cycles, detail)
            busy = target.step()
            cycles += 1
            if progress_callback is not None and cycles % progress_interval == 0:
                progress_callback(cycles)
        return cycles
