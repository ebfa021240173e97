"""Per-job tracing: span timelines exported as Chrome trace-event JSON.

A :class:`TraceRecorder` collects timestamped events keyed by *track* (the
job hash for service lifecycles, the kernel description for engine runs)
and exports them in the Chrome trace-event format — ``{"traceEvents":
[...]}`` with async begin/end pairs (``ph: "b"`` / ``"e"``) matched by
``cat`` + ``id`` — directly loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.

The expected span timeline of one submission::

    job ─┬─ queued ── executing(engine: macro_jump*, idle_jump*) ── write_back
         ├─ coalesced / cache_probe(cache_hit) instants
         └─ dispatched (inside executing) / requeued   (cluster mode)

Tracing is **disabled by default** and costs one module-global ``None``
check per hook when off (:func:`get_tracer` — ``tests/obs`` holds a
duplicate-heavy serve run to at most 16 such calls per submission).  Enable it with
``repro <cmd> --trace out.json`` or ``REPRO_TRACE=out.json``; the hooks
live in :meth:`~repro.runtime.admission.AdmissionCore.announce` (the one
lifecycle emit point of every front door: one :meth:`TraceRecorder.lifecycle`
call per edge), :class:`~repro.cluster.service.ClusterService`
(dispatch/requeue), every executor's cache write-back,
:class:`~repro.serve.queue.FairQueue` depth changes (counter events) and
:class:`~repro.engine.event.EventDrivenEngine` (engine spans + macro-jump
instants).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "get_tracer",
    "install_tracer",
    "uninstall_tracer",
]


@dataclass(frozen=True)
class TraceEvent:
    """One Chrome trace event (async span edge, instant, or counter)."""

    name: str
    ph: str  # "b" begin, "e" end, "n" instant, "C" counter
    ts_us: float
    cat: str = "job"
    track: str = ""
    args: Dict[str, object] = field(default_factory=dict)

    def chrome(self) -> Dict[str, object]:
        event: Dict[str, object] = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": 1,
            "tid": 1,
            "cat": self.cat,
        }
        if self.ph in ("b", "e", "n"):
            event["id"] = self.track[:16] or "0"
        if self.args:
            event["args"] = dict(self.args)
        return event


class TraceRecorder:
    """Collects trace events; thread-safe, append-only, export-at-end.

    Service hooks feed it from submitter and worker threads, engine hooks
    from worker threads, cluster hooks from reader threads — every append
    takes the lock.  ``begin``/``end`` are idempotent per (track, name):
    a duplicate begin (a coalesced submission re-announcing the job) is
    dropped, an end without a begin is recorded as an instant so no data
    is silently lost.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []
        self._open: Dict[Tuple[str, str, str], int] = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def begin(self, name: str, track: str, cat: str = "job", **args: object) -> None:
        key = (cat, track, name)
        with self._lock:
            if self._open.get(key, 0) > 0:
                return  # coalesced duplicate: the span is already open
            self._open[key] = 1
            self._events.append(
                TraceEvent(name, "b", self._now_us(), cat, track, dict(args))
            )

    def end(self, name: str, track: str, cat: str = "job", **args: object) -> None:
        key = (cat, track, name)
        with self._lock:
            if self._open.get(key, 0) > 0:
                self._open[key] = 0
                ph = "e"
            else:
                ph = "n"  # end without begin: keep it visible as an instant
            self._events.append(
                TraceEvent(name, ph, self._now_us(), cat, track, dict(args))
            )

    def maybe_end(self, name: str, track: str, cat: str = "job", **args: object) -> None:
        """End the span only if it is open (no instant noise otherwise)."""
        key = (cat, track, name)
        with self._lock:
            if self._open.get(key, 0) <= 0:
                return
            self._open[key] = 0
            self._events.append(
                TraceEvent(name, "e", self._now_us(), cat, track, dict(args))
            )

    def instant(self, name: str, track: str, cat: str = "job", **args: object) -> None:
        self._append(TraceEvent(name, "n", self._now_us(), cat, track, dict(args)))

    def counter(self, name: str, values: Dict[str, Union[int, float]]) -> None:
        self._append(TraceEvent(name, "C", self._now_us(), "counter", "", dict(values)))

    # ------------------------------------------------------------------
    def lifecycle(
        self,
        kind: str,
        key: str,
        client: str,
        workload: str = "",
        cycles: Optional[int] = None,
        waiters: Optional[int] = None,
        error: Optional[str] = None,
    ) -> None:
        """Map one admission lifecycle edge (an ``EVENT_KINDS`` kind, or the
        cluster's ``journal_hit``) onto spans.

        The single lifecycle → span mapping: ``AdmissionCore.announce``
        calls it once per edge on every front door; the executors add only
        their own spans (``write_back``; ``dispatched`` / ``requeued``).
        """
        args = {"workload": workload, "client": client}
        if kind == "submitted":
            self.begin("job", key, **args)
        elif kind == "queued":
            self.begin("queued", key, **args)
        elif kind == "started":
            self.maybe_end("queued", key)
            self.begin("executing", key, **args)
        elif kind == "progress":
            self.instant("progress", key, cycles=cycles)
        elif kind in ("coalesced", "cache_hit", "journal_hit"):
            self.instant(kind, key, **args)
        elif kind == "rejected":
            self.instant("rejected", key, **args)
            self.end("job", key, outcome="rejected")
        elif kind == "finished":
            self.maybe_end("executing", key)
            self.end("job", key, outcome="finished", waiters=waiters)
        elif kind == "failed":
            self.maybe_end("executing", key)
            self.end("job", key, outcome="failed", error=error)
        elif kind == "cancelled":
            self.maybe_end("queued", key)
            self.end("job", key, outcome="cancelled")

    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def spans(self, track: str, cat: str = "job") -> List[str]:
        """Names of completed (begin+end) spans on one track, begin order."""
        begun: List[str] = []
        ended = set()
        for event in self.events():
            if event.track != track or event.cat != cat:
                continue
            if event.ph == "b":
                begun.append(event.name)
            elif event.ph == "e":
                ended.add(event.name)
        return [name for name in begun if name in ended]

    def chrome_events(self) -> List[Dict[str, object]]:
        return [event.chrome() for event in self.events()]

    def export(self, path: Union[str, Path]) -> int:
        """Write the Chrome trace JSON; returns the event count."""
        events = self.chrome_events()
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }
        Path(path).write_text(json.dumps(document) + "\n", encoding="utf-8")
        return len(events)


# ----------------------------------------------------------------------
# The process-wide tracer hook point.
# ----------------------------------------------------------------------
_TRACER: Optional[TraceRecorder] = None


def get_tracer() -> Optional[TraceRecorder]:
    """The installed tracer, or ``None`` (the common, near-free case)."""
    return _TRACER


def install_tracer(recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Install ``recorder`` (or a fresh one) as the process tracer."""
    global _TRACER
    if recorder is None:
        recorder = TraceRecorder()
    _TRACER = recorder
    return recorder


def uninstall_tracer() -> Optional[TraceRecorder]:
    """Remove and return the installed tracer."""
    global _TRACER
    recorder = _TRACER
    _TRACER = None
    return recorder
