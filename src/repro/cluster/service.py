"""The sharded simulation cluster: routing, coalescing, durability.

:class:`ClusterService` is the multi-process sibling of the single-process
:class:`~repro.serve.client.ServiceClient`.  It keeps the same outward
contract — submit a :class:`~repro.runtime.job.SimJob`, get a ticket whose
future resolves to one :class:`~repro.runtime.outcome.SimOutcome`; identical
in-flight submissions coalesce; caches are probed before any work is
scheduled — but executes on worker *processes*, so N shards run N
simulations with N private GILs and throughput finally scales with cores.

Admission — coalesce onto an identical in-flight job, probe the
journal-replayed completions and then the shared
:class:`~repro.runtime.cache.ResultCache`, else create a new entry — is the
:class:`~repro.runtime.admission.AdmissionCore`'s, the same one the thread
service and ``Simulator`` run, and so are the counters, the latency and
macro-step telemetry, the snapshot shape and the one lifecycle emit point
(:meth:`~repro.runtime.admission.AdmissionCore.announce`, which feeds the
tracer).  The parent is the cluster's only admission point and bounds
nothing; a shard is a bare executor.  This module is the *executor* for
new entries:

1. **Route** — :class:`~repro.cluster.router.ShardRouter` hash-partitions
   by job hash, so the same job always lands on the same shard.  A shard
   that exhausted its restart budget refuses the entry with
   ``ShardFailedError``.
2. **Journal** — with a :class:`~repro.cluster.journal.JobJournal`
   configured, the accepted job is recorded *before* dispatch, so a crash
   between acceptance and completion resubmits it on restart.
3. **Dispatch** — the job travels to the shard worker over the
   length-prefixed :mod:`~repro.cluster.protocol` channel; the worker
   executes it, writes the outcome back to the shared cache and sends it
   (or the original exception) back.
4. **Settle** — the result frame is matched to its entry by sequence
   number (a stale frame from a killed incarnation matches nothing), the
   core retires the entry, the completion is journaled, and every
   coalesced waiter observes the same outcome object.

Failures are the :class:`~repro.cluster.supervisor.Supervisor`'s job: a
crashed or hung shard is killed and restarted with capped exponential
backoff, and its in-flight jobs are redispatched onto the replacement —
waiters keep their original future and never observe the crash.  A shard
that crash-loops without doing work fails its jobs with
:class:`~repro.cluster.supervisor.ShardFailedError` instead of hanging.

``ClusterService`` quacks like :class:`~repro.serve.client.ServiceClient`
(``submit`` / ``run`` / ``stats_dict`` / ``snapshot`` / ``close``), so
``Simulator(service=...)`` works unchanged on top of it — that is what
``repro batch … --jobs N`` runs on.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..obs.trace import get_tracer
from ..runtime.admission import AdmissionCore, Entry, ServiceClosedError, Stats, Ticket
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .journal import JobJournal
from .protocol import MSG_ERROR, MSG_RESULT
from .router import ShardRouter
from .supervisor import ShardFailedError, ShardHandle, Supervisor

__all__ = ["ClusterConfig", "ClusterService"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one :class:`ClusterService`.

    Parameters
    ----------
    shards:
        Worker processes; throughput scales with this up to the core count.
    worker_threads:
        Executor threads *inside* each shard.  ``1`` is right for CPU-bound
        simulation (the shard process is the unit of parallelism); raise it
        only for I/O-heavy custom backends.
    heartbeat_interval:
        Seconds between the :class:`~repro.cluster.supervisor.Supervisor`'s
        ping rounds.
    heartbeat_timeout:
        A live shard whose last message (pong, result, ready) is older
        than this is considered hung and is killed and restarted.
    backoff_base / backoff_cap:
        First restart delay (successive failures double it) and its cap.
    max_restarts:
        Consecutive fruitless restarts (no result or pong in between)
        before a shard is declared failed for good.
    ready_timeout:
        Seconds to wait for a freshly started worker's ``ready`` frame.
    shutdown_timeout:
        Seconds :meth:`ClusterService.close` waits for draining shards
        before failing leftover futures.
    """

    shards: int = 2
    worker_threads: int = 1
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 15.0
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    max_restarts: int = 5
    ready_timeout: float = 30.0
    shutdown_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.worker_threads <= 0:
            raise ValueError("worker_threads must be positive")
        if self.shutdown_timeout <= 0:
            raise ValueError("shutdown_timeout must be positive")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")


class ClusterService:
    """Multi-process sharded simulation service with supervision.

    Usable as a context manager::

        with ClusterService(cache_dir=path, config=ClusterConfig(shards=4)) as cluster:
            outcomes = cluster.run(jobs)

    Parameters
    ----------
    cache:
        A ready-made :class:`ResultCache`, or ``None``.
    cache_dir:
        Convenience alternative to ``cache``; all shards share this
        directory (their writes are atomic, see ``ResultCache.put``).
    config:
        Shard count and supervision tunables.
    journal:
        Path (or :class:`JobJournal`) enabling the durable backlog.  When
        the file already holds a previous run, the cluster resumes it:
        completed outcomes are served without re-execution and unfinished
        jobs are resubmitted in the background (``wait_idle`` to observe).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ClusterConfig] = None,
        journal: Optional[Union[str, Path, JobJournal]] = None,
    ) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.cache = cache
        self.config = config or ClusterConfig()
        self.stats = Stats("cluster")
        #: The per-cluster metrics registry behind :attr:`stats`.
        self.metrics = self.stats.registry
        self.router = ShardRouter(self.config.shards)
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(Path(journal).expanduser())
        self.journal: Optional[JobJournal] = journal

        #: Serialises the core and the seq -> entry map below; futures are
        #: resolved outside it (done-callbacks are caller code).
        self._lock = threading.RLock()
        self._core = AdmissionCore(self.stats, cache)
        self._pending: Dict[int, Entry] = {}  # seq -> dispatched entry
        self._handles: List[ShardHandle] = []
        self._dead_shards: Dict[int, str] = {}
        self._seq = 0
        #: Set by :meth:`close` / :meth:`terminate`; read-only for callers.
        self.closed = False

        self._supervisor = Supervisor(
            self.config,
            get_handle=self._get_handle,
            replace_handle=self._replace_handle,
            on_shard_lost=self._redispatch_shard,
            on_shard_failed=self._fail_shard,
        )
        self._start()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _start(self) -> None:
        try:
            for index in range(self.config.shards):
                handle = self._make_handle(index)
                handle.start(self.config.ready_timeout)
                self._handles.append(handle)
        except BaseException:
            for handle in self._handles:
                handle.kill()
            raise
        self._supervisor.start(self.config.shards)
        if self.journal is not None:
            self._resume_journal()

    def _make_handle(self, index: int) -> ShardHandle:
        return ShardHandle(
            index,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            worker_threads=self.config.worker_threads,
            on_message=self._on_message,
            on_disconnect=self._supervisor.notify_disconnect,
        )

    def _get_handle(self, index: int) -> ShardHandle:
        with self._lock:
            return self._handles[index]

    def _replace_handle(self, index: int) -> ShardHandle:
        handle = self._make_handle(index)
        handle.start(self.config.ready_timeout)
        with self._lock:
            self._handles[index] = handle
        return handle

    def _resume_journal(self) -> None:
        assert self.journal is not None
        if not self.journal.exists():
            self.journal.start()
            return
        contents = self.journal.resume()
        with self._lock:
            self._core.replayed.update(
                (key, outcome)
                for key, outcome in contents.completed.items()
                if outcome is not None
            )
        unfinished = contents.unfinished()
        for job in unfinished.values():
            # Already journaled (the compacted file retains them): skip the
            # duplicate submission record, keep everything else identical.
            self._submit(job, client="recovery", journal_submission=False)
        self.stats.inc("recovered", len(unfinished))

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Shut the cluster down.

        ``drain=True`` (default): every dispatched job runs to completion
        on its shard and resolves its waiters before the processes exit.
        ``drain=False``: jobs already executing finish and resolve
        normally; the rest are abandoned — counted ``cancelled``, their
        waiters get :class:`ServiceClosedError`.  Either way a shard gets
        ``shutdown_timeout`` seconds before it is killed.  Idempotent.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
        self._supervisor.stop()
        for handle in self._handles:
            handle.request_shutdown(drain)
        deadline = time.monotonic() + self.config.shutdown_timeout
        for handle in self._handles:
            handle.join(max(0.5, deadline - time.monotonic()))
        self._fail_leftovers("cluster closed")

    def terminate(self) -> None:
        """Crash-stop: kill every shard, fail every waiter, journal nothing.

        The programmatic equivalent of the daemon dying — used by the
        crash-recovery tests and as the last-resort operator action.  The
        journal keeps its unfinished submissions, so a new
        :class:`ClusterService` on the same journal resumes the backlog.
        """
        with self._lock:
            self.closed = True
        self._supervisor.stop()
        for handle in self._handles:
            handle.closing = True
            handle.kill()
        self._fail_leftovers("cluster terminated")

    def _fail_leftovers(self, reason: str) -> None:
        with self._lock:
            self._pending.clear()
            leftovers = self._core.abandon(list(self._core.inflight.values()), reason)
        for entry in leftovers:
            entry.resolve()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Submit one job; never blocks on simulation.

        ``priority`` is accepted for :class:`ServiceClient` API parity and
        currently ignored — shard dispatch is FIFO per shard.
        """
        del priority
        return self._submit(job, client=client_name, journal_submission=True)

    #: The parent bounds nothing, so waiting for capacity is submitting.
    submit_wait = submit

    def _submit(self, job: SimJob, client: str, journal_submission: bool) -> Ticket:
        with self._lock:
            if self.closed:
                raise ServiceClosedError("cluster is closed")
            ticket = self._core.admit(
                job, client, lambda entry: self._place(entry, journal_submission)
            )
            if ticket.coalesced or ticket.cache_hit:
                return ticket
            entry = self._core.inflight[ticket.job_hash]
            handle = self._handles[entry.shard]
        # The send happens outside the lock (socket I/O); a failed send is
        # recovered by the supervisor's redispatch when the shard restarts.
        tracer = get_tracer()
        if tracer is not None:
            tracer.instant("shard_routed", entry.key, shard=entry.shard)
            tracer.begin("dispatched", entry.key, shard=entry.shard)
        handle.dispatch(entry.seq, entry.key, job)
        return ticket

    def _place(self, entry: Entry, journal_submission: bool) -> None:
        """The core's ``place`` hook: route, refuse a dead shard, journal
        write-ahead, and index the entry by its wire sequence number."""
        entry.shard = self.router.shard_for(entry.key)
        dead_reason = self._dead_shards.get(entry.shard)
        if dead_reason is not None:
            raise ShardFailedError(dead_reason)
        self._seq += 1
        entry.seq = self._seq
        if self.journal is not None and journal_submission:
            self.journal.record_submission(entry.key, entry.job)
        self._pending[entry.seq] = entry

    def run(
        self,
        jobs: Sequence[SimJob],
        client_name: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and block for every outcome, in submission order.

        Duplicates within the batch coalesce; this is the entry point
        ``Simulator(service=...)`` uses.
        """
        tickets = [
            self.submit(job, client_name=client_name, priority=priority)
            for job in jobs
        ]
        return [ticket.result() for ticket in tickets]

    # ------------------------------------------------------------------
    # Shard callbacks (reader threads + supervisor thread).
    # ------------------------------------------------------------------
    def _on_message(self, handle: ShardHandle, message: dict) -> None:
        kind = message.get("kind")
        if kind == MSG_RESULT:
            self._settle(message["seq"], outcome=message["outcome"])
        elif kind == MSG_ERROR:
            error = message.get("exception")
            if not isinstance(error, BaseException):
                error = RuntimeError(message.get("error", "shard error"))
            self._settle(message["seq"], error=error)
        # ready/pong are handled by the handle and supervisor.

    def _settle(
        self,
        seq: int,
        outcome: Optional[SimOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            entry = self._pending.pop(seq, None)
            if entry is None:
                return  # stale frame from a killed incarnation
            tracer = get_tracer()
            if tracer is not None:
                tracer.maybe_end("dispatched", entry.key)
            self._core.settle(entry.key, outcome, error, executor=entry.shard)
            if outcome is not None and self.journal is not None:
                # The outcome only rides into the journal when no shared
                # cache keeps it durable.
                self.journal.record_completion(
                    entry.key, outcome if self.cache is None else None
                )
                if self.cache is None:
                    self._core.replayed[entry.key] = outcome
        entry.resolve()

    def _redispatch_shard(self, index: int) -> None:
        """Requeue a dead incarnation's in-flight jobs onto its successor."""
        with self._lock:
            entries = [e for e in self._pending.values() if e.shard == index]
            handle = self._handles[index]
            self.stats.inc("requeued", len(entries))
        tracer = get_tracer()
        for entry in sorted(entries, key=lambda e: e.seq):
            if tracer is not None:
                tracer.instant("requeued", entry.key, shard=index)
            handle.dispatch(entry.seq, entry.key, entry.job)

    def _fail_shard(self, index: int, reason: str) -> None:
        """Restart budget exhausted: fail the shard's waiters for good."""
        with self._lock:
            self._dead_shards[index] = reason
            entries = [e for e in self._pending.values() if e.shard == index]
            for entry in entries:
                del self._pending[entry.seq]
                self._core.settle(entry.key, error=ShardFailedError(reason))
        for entry in entries:
            entry.resolve()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until nothing is in flight; ``False`` on timeout.

        Primarily for observing journal recovery: the resubmitted backlog
        has no caller-held tickets, so idleness is the completion signal.
        """
        deadline = time.monotonic() + timeout
        while self._core.inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        return not self._core.inflight

    @property
    def restarts(self) -> int:
        """Shard restarts performed by the supervisor so far."""
        return self._supervisor.restarts

    def stats_dict(self) -> Dict[str, object]:
        """Cluster counters plus the supervisor's ``restarts`` — the same
        call :class:`~repro.serve.client.ServiceClient` answers."""
        summary = self.stats.as_dict()
        summary["restarts"] = self.restarts
        return summary

    def snapshot(self) -> Dict[str, object]:
        """The core's snapshot (``executed_by`` keyed by shard) plus
        ``shards`` (index, liveness, pid, jobs dispatched beyond its
        executor threads), ``shard_count``, ``restarts``, ``journal`` and
        ``cache``.  The parent settles every job, so its counts are already
        cluster-wide: no frame is sent, nothing waited on."""
        threads = self.config.worker_threads
        with self._lock:
            dispatched = Counter(entry.shard for entry in self._pending.values())
            waiting = {index: max(0, n - threads) for index, n in dispatched.items()}
            summary = self._core.snapshot(sum(waiting.values()))
            handles = list(self._handles)
        summary["shards"] = [
            {
                "shard": handle.index,
                "alive": handle.alive(),
                "pid": handle.process.pid if handle.process else None,
                "queue_depth": waiting.get(handle.index, 0),
            }
            for handle in handles
        ]
        summary["shard_count"] = len(handles)
        summary["restarts"] = self.restarts
        summary["journal"] = str(self.journal.path) if self.journal else None
        summary["cache"] = self.cache.stats() if self.cache is not None else None
        return summary
