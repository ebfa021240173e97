"""Lifecycle and progress events of the admission core.

Every externally observable state change of a job is announced once, by
:meth:`~repro.serve.core.AdmissionCore.announce` — the one emit point of
both transports.  It feeds the installed tracer (``TraceRecorder.lifecycle``)
and, when a :class:`~repro.serve.client.ServiceClient` was given an
``on_event`` callback, delivers one :class:`ServiceEvent`.  Events carry no
wall-clock timestamps — they are ordered by a per-service sequence number
counted from 0, which keeps event streams deterministic enough to assert on
in tests.

The expected lifecycle of one submission::

    submitted ─┬─ cache_hit ──────────────────────────── finished
               ├─ coalesced            (rides an in-flight entry's events)
               ├─ rejected             (queue full → QueueFullError)
               └─ queued ── started ── progress* ─┬───── finished
                                                  └───── failed

``cancelled`` replaces ``started`` for entries still queued when the
service closes without draining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
