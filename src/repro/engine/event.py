"""The next-event scheduler: skip cycles in which nothing can happen.

The event-driven engine executes real ``step()`` calls only for cycles in
which the model can change state, and fast-forwards over inactive spans:

1. step the target one cycle, exactly like lockstep;
2. if that step performed zero state changes (``last_step_activity == 0``)
   the model is at a *fixpoint*: every further cycle is provably identical
   until an external event arrives.  Ask the target for its next event
   (for the DataMaestro system the only timed event source is the memory's
   in-flight responses — everything else is combinationally blocked on them);
3. bulk-apply the span up to that event via ``advance(n)`` — components add
   the skipped cycles to their stall/idle counters (GeMM stalls, quantizer
   stalls, per-channel credit stalls) so statistics stay *exact* — and jump
   the clock;
4. if the target reports no future event at a fixpoint, the model is
   deadlocked: no amount of stepping will ever change anything, so the
   engine fast-forwards straight to the cycle budget and raises the same
   :class:`~repro.sim.result.SimulationLimitError` (same cycle count, same
   deadlock report, same bulk-advanced counters) that lockstep would reach
   after millions of no-op steps.

Because every *executed* cycle runs the unmodified phase code and every
*skipped* cycle is proven to be a no-op apart from the bulk-applied
counters, results are bit-identical to the lockstep engine; the parity
suite under ``tests/engine/`` enforces this across the experiment
workloads.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Union

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..sim.result import DEFAULT_PROGRESS_INTERVAL
from .base import (
    EVENT_ENGINE,
    SimulationEngine,
    supports_event_protocol,
    supports_macro_protocol,
)


def _record_engine_run(jumps: int, skipped: int) -> None:
    """Fold one drive() into the process-wide registry (post-loop, cheap)."""
    registry = get_registry()
    registry.counter(
        "repro_engine_runs_total", "Simulations driven by the event engine."
    ).inc()
    if jumps:
        registry.counter(
            "repro_engine_macro_jumps_total",
            "Steady-span macro jumps taken across all engine runs.",
        ).inc(jumps)
        registry.counter(
            "repro_engine_macro_cycles_skipped_total",
            "Cycles bulk-advanced by the macro fast path across all runs.",
        ).inc(skipped)


class EventDrivenEngine(SimulationEngine):
    """Drives an :class:`~repro.engine.base.EventDriven` target to completion.

    Targets that additionally implement the macro protocol
    (``steady_span``/``advance_active``, see :mod:`repro.engine.steady`) get
    the vectorized fast path over *active* steady-state spans as well:
    after a step that completes an output tile, the engine asks the target
    for a verified periodic span and bulk-advances it, and asks again at
    the span's end, where a capped span's successor chains.  ``macro_stepping=
    False`` restores the pure next-event scheduler (the parity oracle of
    the fast path).
    """

    name = EVENT_ENGINE

    def __init__(self, macro_stepping: bool = True) -> None:
        self.macro_stepping = bool(macro_stepping)

    def drive(
        self,
        target,
        max_cycles: int,
        describe: str = "simulation",
        detail: Optional[Union[str, Callable[[], str]]] = None,
        progress_callback: Optional[Callable[[int], None]] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> int:
        if not supports_event_protocol(target):
            raise TypeError(
                f"target {type(target).__name__} does not implement the "
                "event protocol (step/last_step_activity/next_event_cycle/"
                "advance); use the lockstep engine instead"
            )
        macro = self.macro_stepping and supports_macro_protocol(target)
        tracer = get_tracer()
        if tracer is not None:
            tracer.begin(
                "engine", describe, cat="engine", engine=self.name, macro=macro
            )
        jumps = 0
        skipped = 0
        cycles = 0
        busy = True
        try:
            while busy:
                if cycles >= max_cycles:
                    raise self._budget_error(describe, cycles, max_cycles, detail)
                busy = target.step()
                cycles += 1
                if progress_callback is not None and cycles % progress_interval == 0:
                    progress_callback(cycles)
                if busy and macro:
                    # Active steady state: bulk-advance whole verified periods.
                    # A jump's end is a boundary too, where the next may chain.
                    # A tracer times the call that staged each jump and the
                    # jump itself.
                    if tracer is not None:
                        started = perf_counter()
                    span = target.steady_span(max_cycles - cycles)
                    if span > 0:
                        while span > 0:
                            if tracer is not None:
                                planned = perf_counter()
                            target.advance_active(span)
                            previous = cycles
                            cycles += span
                            jumps += 1
                            skipped += span
                            if tracer is not None:
                                replayed = perf_counter()
                                tracer.instant(
                                    "macro_jump",
                                    describe,
                                    cat="engine",
                                    span=span,
                                    plan_ms=(planned - started) * 1e3,
                                    replay_ms=(replayed - planned) * 1e3,
                                )
                            if (
                                progress_callback is not None
                                and cycles // progress_interval
                                > previous // progress_interval
                            ):
                                progress_callback(cycles)
                            if tracer is not None:
                                started = perf_counter()
                            span = target.steady_span(max_cycles - cycles)
                        continue
                if not busy or target.last_step_activity:
                    continue

                # Fixpoint: nothing moved this cycle, so nothing can move until
                # the target's next self-scheduled event.
                event = target.next_event_cycle()
                if event is None:
                    # Deadlock.  Lockstep would spin to the budget accumulating
                    # stall counters; reproduce that state, then raise.
                    if max_cycles > cycles:
                        target.advance(max_cycles - cycles)
                        cycles = max_cycles
                    raise self._budget_error(describe, cycles, max_cycles, detail)
                span = min(event, max_cycles) - cycles
                if span > 0:
                    target.advance(span)
                    previous = cycles
                    cycles += span
                    if tracer is not None:
                        tracer.instant("idle_jump", describe, cat="engine", span=span)
                    if (
                        progress_callback is not None
                        and cycles // progress_interval
                        > previous // progress_interval
                    ):
                        progress_callback(cycles)
            return cycles
        finally:
            _record_engine_run(jumps, skipped)
            if tracer is not None:
                tracer.maybe_end("engine", describe, cat="engine", cycles=cycles)
