"""The admission core and the shell around it: one state machine under
every way a job runs.

What is requested is decoupled from who executes it.  Every submission —
to ``Simulator``, to the thread service, to the cluster — **coalesces**
onto an identical in-flight job, or is answered by a **probe**
(journal-replayed completions, then the
:class:`~repro.runtime.cache.ResultCache`), or becomes a **new entry**
handed to an executor; every entry ends in exactly one **settle** (outcome
or error) or **abandon** (shutdown).  That state machine, its counters, the
executor-side telemetry (latency, macro-step totals, executions per
executor) and the one lifecycle emit point (:meth:`AdmissionCore.announce`)
live here, once, and so does :class:`AdmissionShell`, the one shell every
front door runs on: the lock over the core, batch admission, the one path
an entry runs (announce ``started``, execute, settle, resolve) and the
ops snapshot.  The shell itself is the inline executor, which runs a
batch on the caller's thread; a subclass is another executor — the thread
service on worker threads, the cluster on shard processes that only
execute.  ``Simulator`` is no shell: it holds one (its own inline shell,
or the service it was given) and forwards to it.

The core is transport-free: every waiter holds a plain
``concurrent.futures.Future`` and the shell serialises every call (each
holds one lock), so it needs no lock of its own and can be driven from a
single thread — ``tests/serve/test_core.py`` does exactly that.

Retiring an entry and releasing its waiters are two steps on purpose:
``settle`` / ``abandon`` change state under the shell's lock;
:meth:`Entry.resolve` completes the future — which runs caller-supplied
done-callbacks — so the shell calls it after releasing the lock.

The accounting identity every shell inherits (``inflight`` = entries not
yet retired)::

    submitted = coalesced + cache_hits + journal_hits + executed
              + failed + rejected + cancelled + inflight

The lifecycle of one submission, as :meth:`AdmissionCore.announce` emits
it (``cancelled`` replaces ``started`` for an entry abandoned before it
ran)::

    submitted ─┬─ cache_hit / journal_hit ────────────── finished
               ├─ coalesced            (rides an in-flight entry's events)
               ├─ rejected             (queue full → QueueFullError)
               └─ queued ── started ── progress* ─┬───── finished
                                                  └───── failed

Events carry no wall-clock timestamps: they are ordered by a per-core
sequence number counted from 0, which keeps event streams deterministic
enough to assert on in tests.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..obs.metrics import MetricFamily, MetricsRegistry, Sample
from ..obs.trace import get_tracer
from .backends import execute_job_with_progress
from .cache import ResultCache, write_back
from .job import SimJob
from .outcome import SimOutcome

__all__ = [
    "AdmissionCore",
    "AdmissionShell",
    "EVENT_KINDS",
    "Entry",
    "SERVICE_COUNTERS",
    "ServiceClosedError",
    "ServiceEvent",
    "Stats",
    "Ticket",
]

#: Every event kind the core and its executors emit, in no particular order.
EVENT_KINDS = (
    "submitted",   # a job entered the service (every submission emits one)
    "coalesced",   # the submission attached to an identical in-flight job
    "cache_hit",   # resolved from the result cache without queueing
    "rejected",    # bounced by the admission queue (QueueFullError)
    "queued",      # admitted to the backlog, waiting for a worker
    "started",     # an executor began the backend simulation
    "progress",    # cooperative yield point: ``cycles`` simulated so far
    "finished",    # outcome available; ``waiters`` callers were served
    "failed",      # backend raised; ``error`` repeats the exception text
    "cancelled",   # abandoned unsettled by a non-draining close
)


class ServiceClosedError(RuntimeError):
    """Raised when submitting to (or waiting on) a closed service."""


@dataclass(frozen=True)
class ServiceEvent:
    """One observable state change of one job, as ``on_event`` hears it."""

    #: Which lifecycle edge fired (one of :data:`EVENT_KINDS`).
    kind: str
    #: Stable content hash of the job (:meth:`SimJob.job_hash`).
    job_hash: str
    #: Client name given at submission (fairness/accounting key).
    client: str
    #: Core-wide monotonic sequence number (total order of events).
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


#: The service counter table — the one definition of every admission
#: counter: ``(stats attribute, exposition name, help, scope)``.  ``common``
#: rows exist on both transports, ``thread`` rows only on the in-process
#: service, ``cluster`` rows only on the sharded one.  :class:`Stats`
#: builds its counters from this table into the registry ``/metrics``
#: renders, so a counter cannot be counted under one name and scraped
#: under another.
SERVICE_COUNTERS = (
    ("submitted", "repro_submitted_total", "Jobs submitted to the service.", "common"),
    ("coalesced", "repro_coalesced_total", "Submissions that rode an identical in-flight job.", "common"),
    ("cache_hits", "repro_cache_hits_total", "Submissions resolved from the result cache.", "common"),
    ("journal_hits", "repro_journal_hits_total", "Submissions served from journal-replayed completions.", "cluster"),
    ("executed", "repro_executed_total", "Jobs actually simulated by a backend.", "common"),
    ("failed", "repro_failed_total", "Jobs whose backend raised.", "common"),
    ("rejected", "repro_rejected_total", "Submissions bounced by the admission queue.", "thread"),
    ("cancelled", "repro_cancelled_total", "Admitted jobs abandoned unsettled by a non-draining close.", "common"),
    ("requeued", "repro_requeued_total", "In-flight jobs redispatched after a shard crash.", "cluster"),
    ("recovered", "repro_journal_recovered_total", "Unfinished journal entries replayed at startup.", "cluster"),
)

#: The ``executed_by`` family of each transport: ``(name, label, help)``.
_EXECUTED_BY_FAMILIES = {
    "thread": ("repro_worker_executed_total", "worker", "Jobs completed per worker slot."),
    "cluster": ("repro_shard_executed_total", "shard", "Jobs executed per shard."),
}


class Stats:
    """Counters of one core (monotonic).

    The ``common`` rows of :data:`SERVICE_COUNTERS` plus those of
    ``transport`` (``"thread"`` / ``"cluster"``; any other name, such as
    the inline shell's, carries the common rows only), each a
    :class:`~repro.obs.metrics.Counter` in a per-instance registry (so
    parallel services in one process never merge counts).  Reads are plain
    ints — ``stats.executed``; writes go through :meth:`inc`.
    """

    def __init__(self, transport: str) -> None:
        self.transport = transport
        self.registry = MetricsRegistry()
        self._counters = {
            attr: self.registry.counter(name, help)
            for attr, name, help, scope in SERVICE_COUNTERS
            if scope in ("common", transport)
        }

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters and name in counters:
            return counters[name].value
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    @property
    def coalescing_hit_rate(self) -> float:
        """Fraction of submissions served by riding an in-flight duplicate."""
        return self.coalesced / self.submitted if self.submitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submissions resolved from the cache or the journal."""
        journal = self._counters.get("journal_hits")
        hits = self.cache_hits + (journal.value if journal else 0)
        return hits / self.submitted if self.submitted else 0.0

    def as_dict(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            attr: counter.value for attr, counter in self._counters.items()
        }
        summary["coalescing_hit_rate"] = self.coalescing_hit_rate
        summary["cache_hit_rate"] = self.cache_hit_rate
        return summary


@dataclass
class Entry:
    """One unique in-flight job: the unit executors see and waiters share."""

    job: SimJob
    key: str
    client: str
    priority: int
    future: Future
    waiters: int = 1
    #: Monotonic admission time (``settle`` observes latency from it).
    admitted_at: float = 0.0
    #: Who runs the entry — the worker slot that took it, or the shard that
    #: slot sent it to; ``settle`` credits it in ``executed_by``.
    executor: int = 0
    #: How the entry ended; set by ``settle`` / ``abandon``.
    outcome: Optional[SimOutcome] = None
    error: Optional[BaseException] = None

    def resolve(self) -> None:
        """Hand the recorded result to every waiter (they share ``future``).

        Idempotent, so each waiter is resolved exactly once however the
        retirement paths interleave.
        """
        if self.future.done():
            return
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(self.outcome)


@dataclass
class Ticket:
    """Receipt for one submission, on any front door: ``future`` is a
    ``concurrent.futures.Future`` — block with :meth:`result`, or attach a
    completion callback with :meth:`add_done_callback`."""

    job: SimJob
    job_hash: str
    client: str
    #: This submission attached to an identical in-flight job.
    coalesced: bool
    #: Resolved instantly from the cache or the journal (never executed).
    cache_hit: bool
    future: Future

    def result(self, timeout: Optional[float] = None) -> SimOutcome:
        """Block until the outcome is available (re-raises job errors)."""
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Invoke ``callback(ticket)`` when the outcome settles.

        Runs on the completing thread (or immediately when already done);
        the replay harness uses this to timestamp completions without a
        waiter thread per request.
        """
        self.future.add_done_callback(lambda _future: callback(self))


class AdmissionCore:
    """Coalesce → probe → new entry; settle or abandon; count; announce.

    :meth:`announce` is the one place a lifecycle edge leaves: the core announces ``submitted`` /
    ``coalesced`` / ``journal_hit`` / ``cache_hit`` / ``rejected`` /
    ``finished`` / ``failed`` / ``cancelled``, executors their own edges
    (``queued``, ``started``, ``progress``).  ``on_event`` is the optional
    listener of the thread service's ``on_event=``.
    """

    def __init__(
        self,
        stats: Stats,
        cache: Optional[ResultCache],
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        self.stats = stats
        self.cache = cache
        self.on_event = on_event
        #: Sequence number of the next :class:`ServiceEvent` (from 0).
        self._event_seq = 0
        #: The in-flight coalescing map: job hash -> the one live entry.
        self.inflight: Dict[str, Entry] = {}
        #: Journal-replayed completions, probed before the cache: copies
        #: flagged ``cache_hit``, never an executing caller's own outcome.
        self.replayed: Dict[str, SimOutcome] = {}
        registry = stats.registry
        #: Admission-to-settle latency of executed jobs.
        self.latency = registry.histogram(
            "repro_latency_seconds", "Admission-to-completion latency of executed jobs."
        )
        #: Macro-step engine totals summed over executed outcomes.
        self.macro_jumps = registry.counter(
            "repro_macro_jumps_total", "Steady-span macro jumps taken by the event engine."
        )
        self.macro_cycles_skipped = registry.counter(
            "repro_macro_cycles_skipped_total",
            "Cycles bulk-advanced by the macro-step fast path.",
        )
        #: Executed jobs per executor: a worker slot or a shard index — skew
        #: here means unfair pop order or a pinned executor.
        self.executed_by: "Counter[int]" = Counter()
        family = _EXECUTED_BY_FAMILIES.get(stats.transport)
        if family is not None:
            registry.add_callback("executed_by", lambda: self._executed_by_family(*family))

    def _executed_by_family(self, name: str, label: str, help: str) -> List[MetricFamily]:
        """``executed_by`` as one labelled counter family (none before the
        first execution)."""
        if not self.executed_by:
            return []
        samples = (
            Sample(labels={label: executor}, value=count)
            for executor, count in sorted(self.executed_by.items())
        )
        return [MetricFamily(name, "counter", help, tuple(samples))]

    def announce(
        self, kind: str, entry: Entry, client: Optional[str] = None, **extra
    ) -> None:
        """Emit one lifecycle edge of ``entry`` (a coalesced submission
        passes its own ``client``; the entry keeps the first submitter's).

        The edge goes to the installed tracer and, when set, to
        ``on_event`` as one :class:`ServiceEvent` — the only event object
        built.  Neither may break admission: a raising observer (a
        ``print`` whose pipe closed) would strand futures and deadlock
        shutdown, so its error is dropped.
        """
        if client is None:
            client = entry.client
        workload = entry.job.workload.name
        tracer = get_tracer()
        if tracer is not None:
            try:
                tracer.lifecycle(kind, entry.key, client, workload=workload, **extra)
            except Exception:  # noqa: BLE001 — tracing cannot break the service
                pass
        if self.on_event is not None:
            event = ServiceEvent(kind, entry.key, client, self._event_seq, workload, **extra)
            self._event_seq += 1
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 — observers cannot break the service
                pass

    def admit(
        self,
        job: SimJob,
        client: str,
        place: Callable[[Entry], None],
        priority: int = 0,
        count_refusal: bool = False,
    ) -> Ticket:
        """Admit one submission and return its ticket.

        ``place(entry)`` is the executor accepting a new entry (queue it,
        journal it, collect it for a batch); it may raise to
        refuse, and the refusal propagates.  A refusal counts nothing — the
        caller may retry, and a retry must not count twice — unless
        ``count_refusal`` marks it a fail-fast bounce: then it is
        ``submitted`` + ``rejected``.
        """
        key = job.job_hash()
        entry = self.inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            self.stats.inc("submitted")
            self.stats.inc("coalesced")
            self.announce("submitted", entry, client=client)
            self.announce("coalesced", entry, client=client)
            return Ticket(job, key, client, True, False, entry.future)

        entry = Entry(
            job, key, client, priority, Future(), admitted_at=time.monotonic()
        )
        # The probes run synchronously inside admission on purpose: a burst
        # submitted within one turn of the shell must coalesce atomically,
        # and a hit must resolve its ticket before the caller regains
        # control.  Cache entries are small pickles; the expensive side
        # (the write-back) happens on the executor.
        hit, kind = self.replayed.get(key), "journal_hit"
        if hit is None and self.cache is not None:
            hit, kind = self.cache.get(key), "cache_hit"
        if hit is not None:
            self.stats.inc("submitted")
            self.stats.inc(kind + "s")
            entry.future.set_result(hit)
            self.announce("submitted", entry)
            self.announce(kind, entry)
            self.announce("finished", entry, waiters=1)
            return Ticket(job, key, client, False, True, entry.future)

        try:
            place(entry)
        except Exception:
            if count_refusal:
                self.stats.inc("submitted")
                self.stats.inc("rejected")
                self.announce("submitted", entry)
                self.announce("rejected", entry)
            raise
        self.inflight[key] = entry
        self.stats.inc("submitted")
        self.announce("submitted", entry)
        return Ticket(job, key, client, False, False, entry.future)

    def settle(
        self,
        key: str,
        outcome: Optional[SimOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> Optional[Entry]:
        """Retire ``key`` with its outcome (or error); return the entry for
        the caller to :meth:`~Entry.resolve`.

        An outcome is ``executed`` by the entry's ``executor`` and records
        the latency and the macro-step totals.  A key that is not
        in flight — a stale frame from a killed shard incarnation, a job
        already abandoned — is ignored (``None``).
        """
        entry = self.inflight.pop(key, None)
        if entry is None:
            return None
        entry.outcome, entry.error = outcome, error
        if error is not None:
            self.stats.inc("failed")
            self.announce(
                "failed",
                entry,
                waiters=entry.waiters,
                error=f"{type(error).__name__}: {error}",
            )
            return entry
        self.stats.inc("executed")
        self.latency.observe(time.monotonic() - entry.admitted_at)
        self.executed_by[entry.executor] += 1
        macro = outcome.metrics.get("macro_stats")
        if isinstance(macro, dict):
            self.macro_jumps.inc(int(macro.get("jumps", 0)))
            self.macro_cycles_skipped.inc(int(macro.get("cycles_skipped", 0)))
        self.announce("finished", entry, waiters=entry.waiters)
        return entry

    def abandon(self, entries: Iterable[Entry], reason: str) -> List[Entry]:
        """Retire ``entries`` unsettled (non-draining close, terminate, an
        aborted batch).

        Each one still in flight (that very entry, not a later one under its
        key) is counted ``cancelled`` and will fail its waiters with
        :class:`ServiceClosedError`; returns those entries for the caller to
        :meth:`~Entry.resolve`.
        """
        abandoned = []
        for entry in entries:
            if self.inflight.get(entry.key) is not entry:
                continue
            del self.inflight[entry.key]
            entry.error = ServiceClosedError(
                f"{reason} before job {entry.key[:12]} settled"
            )
            self.stats.inc("cancelled")
            self.announce("cancelled", entry)
            abandoned.append(entry)
        return abandoned


class AdmissionShell:
    """The one shell under every front door: the lock over the core, batch
    admission, the one path an entry runs (:meth:`_run_entry`) and the
    snapshot.  The shell's own executor runs a batch's new entries inline on
    the caller's thread, in turn (what ``Simulator()`` holds); a subclass is
    another executor.  ``cache`` is a ready-made :class:`ResultCache`, or
    ``cache_dir`` the directory to open one in (ignored when ``cache`` is
    given); uncached when both are ``None``.
    """

    #: Which transport's counter rows :attr:`counters` carries.
    _transport = "simulator"

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.cache = cache
        #: The shell's counters: ``executed``, ``cache_hits``, ``coalesced``, …
        self.counters = Stats(self._transport)
        #: The per-shell metrics registry: :attr:`counters`, the core's
        #: telemetry and an executor's gauges; :meth:`snapshot` reads it.
        self.metrics = self.counters.registry
        #: Serialises the core (and an executor's queue).  Re-entrant so an
        #: ``on_event`` callback (which runs under it) may read ``snapshot()``.
        self._lock = threading.RLock()
        self._core = AdmissionCore(self.counters, cache, on_event)

    def run(
        self, jobs: Sequence[SimJob], client_name: str = "anon", priority: int = 0
    ) -> List[SimOutcome]:
        """Submit a batch and block for every outcome, in submission order.

        The batch is admitted under one hold of the lock, so a duplicate
        *within it* always coalesces.  When the inline executor raises, the
        entries still in flight are retired ``cancelled`` (no later call
        coalesces onto a dead future) and the error propagates."""
        batch: List[Entry] = []
        try:
            with self._lock:
                tickets = [self._admit(job, client_name, priority, batch) for job in jobs]
            if batch:
                self._run_batch(batch)
        except BaseException:
            with self._lock:
                aborted = self._core.abandon(batch, "batch aborted")
            for entry in aborted:
                entry.resolve()
            raise
        return [ticket.result() for ticket in tickets]

    def _admit(self, job: SimJob, client: str, priority: int, batch: List[Entry]) -> Ticket:
        """Admit one job under the lock; a new entry joins ``batch``."""
        return self._core.admit(job, client, batch.append, priority)

    def _run_batch(self, batch: List[Entry]) -> None:
        """The inline executor: run ``batch`` on this thread, in turn; the
        first backend error propagates."""
        take = iter(batch).__next__
        for _ in batch:
            entry = self._run_entry(take)
            if entry.error is not None:
                raise entry.error

    def _run_entry(self, take: Callable[[], Optional[Entry]]) -> Optional[Entry]:
        """Run one entry on this thread: ``take`` it and announce it
        ``started`` in one hold of the lock, :meth:`_execute` it off the
        lock, settle it, and resolve its waiters once the lock is released.
        Returns the entry (``error`` set when the executor raised), or
        ``None`` when ``take`` has none."""
        with self._lock:
            entry = take()
            if entry is None:
                return None
            self._core.announce("started", entry)
        try:
            outcome, error = self._execute(entry), None
        except Exception as caught:  # noqa: BLE001 — surfaced to every waiter
            outcome, error = None, caught
        with self._lock:
            self._core.settle(entry.key, outcome, error)
        entry.resolve()
        return entry

    def _execute(self, entry: Entry) -> SimOutcome:
        """Simulate ``entry`` and write the outcome back, before ``settle``:
        a later duplicate finds the in-flight entry or the cache, never
        neither (``ResultCache.put`` is atomic).  A failing write-back is
        only a warning — the outcome must reach its waiters."""
        outcome = self._simulate(entry)
        write_back(self.cache, entry.key, outcome)
        return outcome

    def _simulate(self, entry: Entry) -> SimOutcome:
        """The backend run; inline, with no ``progress`` edges."""
        return execute_job_with_progress(entry.job)

    def _queue_depth(self) -> int:
        """Entries no executor has picked up yet: none inline."""
        return 0

    def snapshot(self) -> Dict[str, object]:
        """The one ops-snapshot shape: ``queue_depth``, ``inflight``, every
        counter and hit rate, ``executed_by``, ``latency`` and ``macro``,
        read under the lock (the accounting identity holds on it), plus the
        cache's directory pass, made after the lock is released."""
        core = self._core
        with self._lock:
            summary = {
                "queue_depth": self._queue_depth(),
                "inflight": len(core.inflight),
                **self.counters.as_dict(),
                "executed_by": dict(core.executed_by),
                "latency": core.latency.as_dict(),
                "macro": {
                    "jumps": core.macro_jumps.value,
                    "cycles_skipped": core.macro_cycles_skipped.value,
                },
            }
        summary["cache"] = self.cache.stats() if self.cache is not None else None
        return summary
