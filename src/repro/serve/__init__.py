"""``repro.serve`` — the in-process simulation service.

:class:`ServiceClient` is a long-lived, thread-safe front door: the
admission shell of :mod:`repro.runtime.admission` (the one a bare
``Simulator`` holds with its inline executor and :mod:`repro.cluster`
runs on shard processes) with worker threads as its executor.  It

* **coalesces** identical in-flight requests onto one future (keyed by the
  job hash), so a duplicate burst costs one simulation;
* **admits** work through a bounded priority queue with per-client
  fairness, rejecting overflow with the typed
  :class:`~repro.serve.queue.QueueFullError` (explicit backpressure);
* **probes the result cache before scheduling** and writes fresh results
  back through it;
* **announces** every lifecycle and progress edge from one emit point,
  :meth:`AdmissionCore.announce
  <repro.runtime.admission.AdmissionCore.announce>`: to the installed
  tracer, and as a :class:`~repro.runtime.admission.ServiceEvent` to the
  ``on_event`` callback.

``python -m repro.cli serve …`` is the CLI daemon;
``Simulator(service=client)`` hands the batches of existing call sites
(sweeps, experiments, ``ExplorationEngine(simulator=...)``) to it;
:func:`~repro.serve.replay.replay_trace` / ``python -m repro.cli replay``
drive it with realistic arrival traces (``docs/SCENARIOS.md``).  See
``docs/SERVE.md`` for the full guide, including when to prefer the bare
:class:`~repro.runtime.simulator.Simulator`.
"""

from ..runtime.admission import ServiceClosedError, ServiceEvent
from .client import ServiceClient, ServiceConfig
from .queue import FairQueue, QueueFullError
from .replay import build_trace

__all__ = [
    "FairQueue",
    "QueueFullError",
    "build_trace",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceEvent",
]
