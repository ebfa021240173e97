"""Event-driven simulation kernel (and the legacy lockstep loop).

``repro.engine`` owns the loops that drive cycle-level models to completion.
The default, the **event-driven** engine, advances time directly to the next
cycle in which anything can happen instead of stepping every component every
cycle, and — for targets implementing the macro protocol — bulk-advances
*active* steady-state spans via the vectorized replayer in
:mod:`repro.engine.steady`; the **lockstep** engine is the legacy per-cycle
loop, retained as the parity reference.  All paths produce bit-identical
results — identical cycle counts, bank-conflict counts, per-streamer
statistics and output tensors — see ``docs/ENGINE.md``.

Select an engine wherever simulations are launched::

    system.run(program, engine="event")            # the default
    SimJob(workload=w, engine="lockstep")          # via the runtime
    python -m repro.cli batch gemm:64x64x64 --engine lockstep
"""

from .base import (
    DEFAULT_ENGINE,
    EVENT_ENGINE,
    LOCKSTEP_ENGINE,
    available_engines,
    get_engine,
    supports_event_protocol,
    supports_macro_protocol,
    validate_engine,
)
from .event import EventDrivenEngine
from .lockstep import LockstepEngine

__all__ = [
    "DEFAULT_ENGINE",
    "EVENT_ENGINE",
    "LOCKSTEP_ENGINE",
    "EventDrivenEngine",
    "LockstepEngine",
    "available_engines",
    "get_engine",
    "supports_event_protocol",
    "supports_macro_protocol",
    "validate_engine",
]
