"""The sharded simulation cluster: the thread service with shard executors.

:class:`ClusterService` is a :class:`~repro.serve.client.ServiceClient`
whose worker slots drive shard *processes*, so N shards run N simulations
with N private GILs.  Admission and the path an entry runs are the
:class:`~repro.runtime.admission.AdmissionShell`'s, the one
:class:`~repro.serve.queue.FairQueue` (unbounded here: the parent admits
every job) and worker loop the thread service's; this module is the shard
executor behind a slot:

1. **Journal** — with a :class:`~repro.cluster.journal.JobJournal`, the
   enqueue hook records an accepted job before it is queued, so a crash
   before its completion resubmits it on restart.
2. **Dispatch** — each shard has ``worker_threads`` slots.  A free slot
   takes the next job, sends it to its shard (the next live one when its
   own is dead) over :mod:`~repro.cluster.protocol` and waits for the
   reply: a shard is only sent what it can run at once, and whichever
   shard frees first takes the next job.
3. **Execute** — the shard runs the backend, writes the outcome back to
   the shared cache and replies with it (or the original exception).
4. **Settle** — the reader thread hands the reply to its slot by sequence
   number (a stale frame from a killed incarnation matches nothing); the
   slot journals the completion and settles through the core.

The :class:`~repro.cluster.supervisor.Supervisor` kills and restarts a
crashed or hung shard and resends what its slots wait on, so waiters never
observe the crash.  A shard that crash-loops fails those jobs with
:class:`~repro.cluster.supervisor.ShardFailedError`; its slots then serve
the live shards, and admission raises that error once every shard is dead.
``Simulator(service=cluster)`` hands its batches to ``cluster.run``.
"""

from __future__ import annotations

import itertools
import sys
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs.metrics import MetricFamily, Sample
from ..obs.trace import get_tracer
from ..runtime.admission import Entry, ServiceClosedError, ServiceEvent, Ticket
from ..runtime.cache import ResultCache
from ..runtime.outcome import SimOutcome
from ..serve.client import ServiceClient
from .journal import JobJournal
from .protocol import MSG_ERROR, MSG_RESULT
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
        Executor threads *inside* each shard, and so the parent's worker
        slots per shard.  ``1`` is right for CPU-bound simulation (the
        shard process is the unit of parallelism); raise it only for
        I/O-heavy custom backends.
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
        Seconds :meth:`ClusterService.close` gives each shard process to
        exit, once the parent has drained, before killing it.
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
        if self.ready_timeout <= 0:
            raise ValueError("ready_timeout must be positive")
        if self.shutdown_timeout <= 0:
            raise ValueError("shutdown_timeout must be positive")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")

    #: Unbounded: the parent admits, and journals, every job.
    max_backlog = sys.maxsize

    @property
    def max_workers(self) -> int:
        """The parent's worker slots: ``worker_threads`` per shard."""
        return self.shards * self.worker_threads


class ClusterService(ServiceClient):
    """Multi-process sharded simulation service with supervision.

    Usable as a context manager::

        with ClusterService(cache_dir=path, config=ClusterConfig(shards=4)) as cluster:
            outcomes = cluster.run(jobs)

    Parameters
    ----------
    cache, cache_dir, on_event:
        As for :class:`~repro.serve.client.ServiceClient`; all shards write
        back into the one cache directory (atomically, see
        ``ResultCache.put``).
    config:
        Shard count and supervision tunables.
    journal:
        Path (or :class:`JobJournal`) enabling the durable backlog.  When
        the file already holds a previous run, the cluster resumes it:
        completed outcomes are served without re-execution and unfinished
        jobs are resubmitted in the background (``wait_idle`` to observe).
    """

    _transport = "cluster"

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ClusterConfig] = None,
        journal: Optional[Union[str, Path, JobJournal]] = None,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        super().__init__(cache, cache_dir, config or ClusterConfig(), on_event)
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(Path(journal).expanduser())
        self.journal: Optional[JobJournal] = journal
        #: seq -> (the entry a slot sent, the reply that slot waits on).
        self._pending: Dict[int, Tuple[Entry, Future]] = {}
        self._handles: List[ShardHandle] = []
        self._seqs = itertools.count(1)
        self._supervisor = Supervisor(
            self.config,
            get_handle=self._get_handle,
            replace_handle=self._replace_handle,
            on_shard_lost=self._redispatch_shard,
            on_shard_failed=self._fail_shard,
        )
        self.metrics.gauge(
            "repro_shard_count", "Configured shard processes.", lambda: len(self._handles)
        )
        self.metrics.add_callback("shards", self._shard_families)
        try:
            for index in range(self.config.shards):
                self._handles.append(self._start_shard(index))
        except BaseException:
            self.terminate()
            raise
        self._supervisor.start()
        if self.journal is not None:
            self._resume_journal()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _start_shard(self, index: int) -> ShardHandle:
        """Fork shard ``index`` and wait for its ``ready`` handshake."""
        handle = ShardHandle(
            index,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            worker_threads=self.config.worker_threads,
            on_message=self._on_message,
            on_disconnect=self._supervisor.notify_disconnect,
        )
        handle.start(self.config.ready_timeout)
        return handle

    def _get_handle(self, index: int) -> ShardHandle:
        with self._lock:
            return self._handles[index]

    def _replace_handle(self, index: int) -> None:
        handle = self._start_shard(index)
        with self._lock:
            self._handles[index] = handle

    def _resume_journal(self) -> None:
        """Serve the journal's completions; resubmit its unfinished jobs
        (journaled again on the way in — the next resume compacts that)."""
        if not self.journal.exists():
            self.journal.start()
            return
        contents = self.journal.resume()
        with self._lock:
            self._core.replayed.update(
                (key, replace(outcome, cache_hit=True))
                for key, outcome in contents.completed.items()
                if outcome is not None
            )
        unfinished = contents.unfinished()
        for job in unfinished.values():
            self.submit(job, client_name="recovery")
        self.counters.inc("recovered", len(unfinished))

    def close(self, drain: bool = True) -> None:
        """Shut the cluster down: the thread service's ``close`` — the slots
        finish every job (``drain=True``) or only those already sent to a
        shard, the rest counted ``cancelled`` — then every shard is told to
        exit and gets ``shutdown_timeout`` seconds before it is killed.
        Idempotent."""
        super().close(drain)
        self._supervisor.stop()
        deadline = time.monotonic() + self.config.shutdown_timeout
        for handle in self._handles:
            handle.request_shutdown()
        for handle in self._handles:
            handle.join(max(0.5, deadline - time.monotonic()))

    def terminate(self) -> None:
        """Crash-stop: kill every shard, fail every waiter, journal nothing.

        The programmatic equivalent of the daemon dying — used by the
        crash-recovery tests and as the last-resort operator action.  The
        journal keeps its unfinished submissions, so a new
        :class:`ClusterService` on the same journal resumes the backlog.
        """
        with self._lock:
            self.closed = True
            replies = [reply for _, reply in self._pending.values()]
            self._pending.clear()
            self._queue.drain()
            leftovers = self._core.abandon(
                list(self._core.inflight.values()), "cluster terminated"
            )
            self._work_available.notify_all()
        self._supervisor.stop()
        for handle in self._handles:
            handle.closing = True
            handle.kill()
        for reply in replies:
            reply.set_exception(ServiceClosedError("cluster terminated"))
        for entry in leftovers:
            entry.resolve()
        for worker in self._workers:
            worker.join()

    # ------------------------------------------------------------------
    # The shell's hooks: admit, enqueue, execute.
    # ------------------------------------------------------------------
    def _admit(self, *args, **kwargs) -> Ticket:
        """The thread service's admission, refused once every shard is dead
        (like a closed service's refusal, that counts nothing)."""
        self._live_shard(0)
        return super()._admit(*args, **kwargs)

    def _enqueue(self, entry: Entry) -> None:
        """Journal the accepted job write-ahead, then queue it."""
        if self.journal is not None:
            self.journal.record_submission(entry.key, entry.job)
        super()._enqueue(entry)

    def _live_shard(self, preferred: int) -> int:
        """``preferred``, or the next shard after it the supervisor has not
        given up on; :class:`ShardFailedError` once every shard is dead."""
        dead = self._supervisor.given_up
        for step in range(self.config.shards):
            index = (preferred + step) % self.config.shards
            if index not in dead:
                return index
        raise ShardFailedError("; ".join(dead.values()))

    def _execute(self, entry: Entry) -> SimOutcome:
        """Send ``entry`` to its slot's shard, wait for the reply the reader
        thread delivers (a shard's death resends it, see
        :meth:`_redispatch_shard`) and journal the completion."""
        reply: Future = Future()
        with self._lock:
            if self._core.inflight.get(entry.key) is not entry:
                raise ServiceClosedError("cluster terminated")
            entry.executor = self._live_shard(entry.executor % self.config.shards)
            seq = next(self._seqs)
            self._pending[seq] = (entry, reply)
            handle = self._handles[entry.executor]
        tracer = get_tracer()
        if tracer is not None:
            tracer.begin("dispatched", entry.key, shard=entry.executor)
        handle.dispatch(seq, entry.key, entry.job)
        try:
            outcome = reply.result()
        finally:
            if tracer is not None:
                tracer.maybe_end("dispatched", entry.key)
        if self.journal is not None:
            # The outcome only rides into the journal when no shared cache
            # keeps it durable.
            with self._lock:
                self.journal.record_completion(
                    entry.key, outcome if self.cache is None else None
                )
                if self.cache is None:
                    # A hit gets a flagged copy: ``outcome`` is its caller's.
                    self._core.replayed[entry.key] = replace(outcome, cache_hit=True)
        return outcome

    # ------------------------------------------------------------------
    # Shard callbacks (reader threads + supervisor thread).
    # ------------------------------------------------------------------
    def _on_message(self, handle: ShardHandle, message: dict) -> None:
        kind = message.get("kind")
        if kind not in (MSG_RESULT, MSG_ERROR):
            return  # ready/pong are the handle's and the supervisor's
        with self._lock:
            sent = self._pending.pop(message["seq"], None)
        if sent is None:
            return  # stale frame from a killed incarnation
        reply = sent[1]
        if kind == MSG_RESULT:
            reply.set_result(message["outcome"])
            return
        error = message.get("exception")
        if not isinstance(error, BaseException):
            error = RuntimeError(message.get("error", "shard error"))
        reply.set_exception(error)

    def _redispatch_shard(self, index: int) -> None:
        """Resend what a dead incarnation's slots wait on to its successor."""
        with self._lock:
            sent = [(seq, e) for seq, (e, _) in self._pending.items() if e.executor == index]
            handle = self._handles[index]
            self.counters.inc("requeued", len(sent))
        tracer = get_tracer()
        for seq, entry in sent:
            if tracer is not None:
                tracer.instant("requeued", entry.key, shard=index)
            handle.dispatch(seq, entry.key, entry.job)

    def _fail_shard(self, index: int, reason: str) -> None:
        """Restart budget exhausted: fail what the shard's slots wait on;
        from now on those slots serve the live shards."""
        with self._lock:
            seqs = [seq for seq, (e, _) in self._pending.items() if e.executor == index]
            replies = [self._pending.pop(seq)[1] for seq in seqs]
        for reply in replies:
            reply.set_exception(ShardFailedError(reason))

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

    def _shard_families(self) -> List[MetricFamily]:
        """The supervisor's rows: restarts and each shard's liveness."""
        return [
            MetricFamily(
                "repro_shard_restarts_total",
                "counter",
                "Shard restarts performed by the supervisor.",
                (Sample(value=self.restarts),),
            ),
            MetricFamily(
                "repro_shard_alive",
                "gauge",
                "Liveness of each shard process (1 = alive).",
                tuple(
                    Sample(labels={"shard": handle.index}, value=int(handle.alive()))
                    for handle in self._handles
                ),
            ),
        ]

    def stats_dict(self) -> Dict[str, object]:
        """The service counters plus the supervisor's ``restarts``."""
        return {**super().stats_dict(), "restarts": self.restarts}

    stats = stats_dict

    def snapshot(self) -> Dict[str, object]:
        """The service's snapshot (``executed_by`` keyed by shard) plus
        ``shards`` (index, liveness, pid), ``shard_count``, ``restarts``
        and ``journal``.  The parent settles every job, so its counts are
        already cluster-wide: no frame is sent, nothing waited on."""
        summary = super().snapshot()
        with self._lock:
            handles = list(self._handles)
        summary["shards"] = [
            {
                "shard": handle.index,
                "alive": handle.alive(),
                "pid": handle.process.pid if handle.process else None,
            }
            for handle in handles
        ]
        summary["shard_count"] = len(handles)
        summary["restarts"] = self.restarts
        summary["journal"] = str(self.journal.path) if self.journal else None
        return summary
