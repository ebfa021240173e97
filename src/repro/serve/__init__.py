"""``repro.serve`` — the in-process simulation service.

PR 1–4 built the ingredients of a production-scale simulation system —
hashable :class:`~repro.runtime.job.SimJob` descriptions, the on-disk
:class:`~repro.runtime.cache.ResultCache`, batched execution and the
event-driven engine.  This package is the front door that turns them into
a *service*: a long-lived, thread-safe component that

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

Entry points:

* :class:`ServiceClient` — the one service shell: worker slots under one
  lock around the transport-free admission core of
  :mod:`repro.runtime.admission` (shared with ``Simulator``); the
  :mod:`repro.cluster` service is this class with shard executors;
* ``python -m repro.cli serve …`` — the CLI daemon;
* ``Simulator(service=client)`` — routes existing call sites (sweeps,
  experiments, ``ExplorationEngine(simulator=...)``) through one shared
  scheduler and cache;
* :func:`~repro.serve.replay.replay_trace` / ``python -m repro.cli replay``
  — drive the service with realistic arrival traces (Poisson, diurnal,
  bursty, hot-key-skewed, or recorded JSONL) and report per-regime latency
  and avoidance (:mod:`repro.serve.replay`, ``docs/SCENARIOS.md``).

See ``docs/SERVE.md`` for the full guide (including when to prefer the
bare :class:`~repro.runtime.simulator.Simulator`) and
``docs/ARCHITECTURE.md`` for where this layer sits in the package map.
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
