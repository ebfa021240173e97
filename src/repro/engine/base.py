"""Simulation-engine protocol and registry.

An *engine* is the loop that drives a cycle-level model to completion.  Two
implementations ship with the package:

* ``"lockstep"`` (:class:`~repro.engine.lockstep.LockstepEngine`) — the
  legacy loop: call ``step()`` once per simulated clock cycle, every cycle.
* ``"event"`` (:class:`~repro.engine.event.EventDrivenEngine`) — the
  next-event scheduler: step only through cycles in which the model can
  change state, and fast-forward over provably inactive spans by
  bulk-applying them to the per-component stall/idle counters.  Results are
  bit-identical to lockstep (same cycle counts, same bank conflicts, same
  output tensors); see ``docs/ENGINE.md`` for the argument.

Engines drive *targets*.  Every target has ``step() -> bool`` (one clock
cycle, True while busy); the event engine additionally needs
the :class:`EventDriven` protocol — ``last_step_activity`` (state changes
performed by the most recent ``step()``), ``next_event_cycle()`` (earliest
future cycle at which anything can happen, ``None`` for "never") and
``advance(n)`` (bulk-apply ``n`` skipped cycles to the counters).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Union, runtime_checkable

from ..sim.result import DEFAULT_PROGRESS_INTERVAL, SimulationLimitError

#: Registry name of the next-event scheduler.
EVENT_ENGINE = "event"
#: Registry name of the legacy one-step-per-cycle loop.
LOCKSTEP_ENGINE = "lockstep"
#: Engine used when the caller does not choose one.
DEFAULT_ENGINE = EVENT_ENGINE


@runtime_checkable
class EventDriven(Protocol):
    """Target protocol required by the event-driven engine."""

    #: Number of state-changing events the most recent ``step()`` performed.
    last_step_activity: int

    def step(self) -> bool:
        """Advance one cycle; return ``True`` while more work remains."""
        ...

    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle with possible activity; ``None`` = never."""
        ...

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` provably inactive cycles to the counters."""
        ...


def supports_event_protocol(target: object) -> bool:
    """Whether ``target`` implements the full :class:`EventDriven` protocol."""
    return (
        callable(getattr(target, "step", None))
        and callable(getattr(target, "next_event_cycle", None))
        and callable(getattr(target, "advance", None))
        and hasattr(target, "last_step_activity")
    )


def supports_macro_protocol(target: object) -> bool:
    """Whether ``target`` can bulk-advance *active* steady-state spans.

    The macro protocol extends :class:`EventDriven` with ``steady_span(limit)
    -> int`` (cycles the target can macro-step right now; non-zero stages a
    plan) and ``advance_active(n)`` (commit that plan).  See
    :mod:`repro.engine.steady` for the contract.
    """
    return (
        callable(getattr(target, "steady_span", None))
        and callable(getattr(target, "advance_active", None))
    )


class SimulationEngine:
    """Interface every engine implements."""

    #: Registry name of the engine.
    name: str = "unnamed"

    def drive(
        self,
        target,
        max_cycles: int,
        describe: str = "simulation",
        detail: Optional[Union[str, Callable[[], str]]] = None,
        progress_callback: Optional[Callable[[int], None]] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> int:
        """Run ``target`` to completion; return the cycles consumed.

        Raises :class:`SimulationLimitError` when ``max_cycles`` is reached
        with work remaining.  ``describe`` names the run in the error
        message; ``detail`` (a string, or a zero-argument callable evaluated
        at raise time — e.g. a deadlock-report method) fills the error's
        ``detail`` field.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def _budget_error(
        describe: str,
        cycles: int,
        max_cycles: int,
        detail: Optional[Union[str, Callable[[], str]]],
    ) -> SimulationLimitError:
        resolved = detail() if callable(detail) else detail
        return SimulationLimitError(
            message=f"{describe} exceeded its cycle budget",
            cycles=cycles,
            detail=resolved if resolved is not None else f"max_cycles={max_cycles}",
        )


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def get_engine(name: str) -> SimulationEngine:
    """Look up an engine by registry name (``"event"`` or ``"lockstep"``)."""
    from .event import EventDrivenEngine
    from .lockstep import LockstepEngine

    engines = {
        EVENT_ENGINE: EventDrivenEngine,
        LOCKSTEP_ENGINE: LockstepEngine,
    }
    try:
        return engines[name]()
    except KeyError:
        raise KeyError(
            f"unknown simulation engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> List[str]:
    """Names of every simulation engine."""
    return [EVENT_ENGINE, LOCKSTEP_ENGINE]


def validate_engine(name: str) -> str:
    """Return ``name`` if it is a known engine, raise ``ValueError`` otherwise."""
    if name not in available_engines():
        raise ValueError(
            f"unknown simulation engine {name!r}; available: {available_engines()}"
        )
    return name
