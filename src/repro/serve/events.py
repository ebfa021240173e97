"""Lifecycle and progress events emitted by the simulation service.

Every externally observable state change of a job inside
:class:`~repro.serve.service.SimulationService` is announced as one
:class:`ServiceEvent`.  Events carry no wall-clock timestamps — they are
ordered by a service-wide monotonic sequence number, which keeps event
streams deterministic enough to assert on in tests.

The expected lifecycle of one submission::

    submitted ─┬─ cache_hit ──────────────────────────── finished
               ├─ coalesced            (rides an in-flight entry's events)
               ├─ rejected             (queue full → QueueFullError)
               └─ queued ── started ── progress* ─┬───── finished
                                                  └───── failed

``cancelled`` replaces ``started`` for entries still queued when the
service closes without draining.

Consumers register a plain callable with
:meth:`SimulationService.add_listener`; it is invoked under the service's
lock on whichever thread publishes (the
:class:`~repro.serve.client.ServiceClient` uses this to mirror events into
a bounded ring and to feed its ``on_event`` callback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs.trace import get_tracer

#: Every event kind the service emits, in no particular order.
EVENT_KINDS = (
    "submitted",   # a job entered the service (every submission emits one)
    "coalesced",   # the submission attached to an identical in-flight job
    "cache_hit",   # resolved from the result cache without queueing
    "rejected",    # bounced by the admission queue (QueueFullError)
    "queued",      # admitted to the backlog, waiting for a worker
    "started",     # a worker began the backend simulation
    "progress",    # cooperative yield point: ``cycles`` simulated so far
    "finished",    # outcome available; ``waiters`` callers were served
    "failed",      # backend raised; ``error`` repeats the exception text
    "cancelled",   # still queued when the service closed without draining
)


@dataclass(frozen=True)
class ServiceEvent:
    """One observable state change of one job inside the service."""

    #: Which lifecycle edge fired (one of :data:`EVENT_KINDS`).
    kind: str
    #: Stable content hash of the job (:meth:`SimJob.job_hash`).
    job_hash: str
    #: Client name given at submission (fairness/accounting key).
    client: str
    #: Service-wide monotonic sequence number (total order of events).
    seq: int
    #: Workload name, for human-readable streams.
    workload: str = ""
    #: Cycles simulated so far (``progress`` events only).
    cycles: Optional[int] = None
    #: Number of coalesced callers served (``finished``/``failed`` only).
    waiters: Optional[int] = None
    #: Exception text (``failed`` events only).
    error: Optional[str] = None

    def describe(self) -> str:
        """One-line rendering used by ``repro serve --events``."""
        parts = [f"[{self.seq:04d}] {self.kind:<9}", self.workload or self.job_hash[:12]]
        if self.client:
            parts.append(f"client={self.client}")
        if self.cycles is not None:
            parts.append(f"cycles={self.cycles}")
        if self.waiters is not None:
            parts.append(f"waiters={self.waiters}")
        if self.error is not None:
            parts.append(f"error={self.error}")
        return " ".join(parts)


class EventBus:
    """Sequences events and fans them out to the registered listeners.

    Not thread-safe by itself: the service calls :meth:`publish` and
    :meth:`add_listener` under its lock, which is what makes ``seq`` a
    total order and keeps every listener's view in that order.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._listeners: List[Callable[[ServiceEvent], None]] = []

    def add_listener(self, listener: Callable[[ServiceEvent], None]) -> None:
        self._listeners.append(listener)

    def publish(self, kind: str, job_hash: str, client: str, **extra) -> ServiceEvent:
        """Build, sequence and deliver one event; returns it.

        Delivery is isolated per consumer: a raising listener (e.g. a
        ``print`` callback whose pipe closed) must never propagate into the
        service's submit/worker paths — that would strand futures and
        deadlock shutdown.
        """
        event = ServiceEvent(
            kind=kind, job_hash=job_hash, client=client, seq=self._seq, **extra
        )
        self._seq += 1
        # The one tracing hook of the whole thread service: every lifecycle
        # edge flows through here, so the span timeline costs exactly one
        # None check per event when tracing is off.
        tracer = get_tracer()
        if tracer is not None:
            try:
                tracer.lifecycle(kind, job_hash, client, **extra)
            except Exception:  # noqa: BLE001 — tracing cannot break the service
                pass
        for listener in self._listeners:
            try:
                listener(event)
            except Exception:  # noqa: BLE001 — observers cannot break the service
                pass
        return event
