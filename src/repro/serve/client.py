"""The thread service: the admission shell with worker-thread executors.

:class:`ServiceClient` is what scripts, tests, the CLI and
``Simulator(service=...)`` hold, in-process or — as its subclass
:class:`~repro.cluster.service.ClusterService` — across shard processes::

    with ServiceClient(cache_dir=path) as client:
        ticket = client.submit(job, client_name="alice")
        outcome = ticket.result()                  # blocks
        outcomes = client.run(jobs)                # batch, order preserved

The lock, admission (coalesce, probe, count, announce), the one path an
entry runs and the snapshot are the
:class:`~repro.runtime.admission.AdmissionShell`'s.  This module adds the
executor both transports share: a **fair admission queue**
(:class:`~repro.serve.queue.FairQueue`: priority first, round-robin across
clients, FIFO within a client; a full backlog raises the typed
:class:`~repro.serve.queue.QueueFullError` from :meth:`~ServiceClient.submit`,
while :meth:`~ServiceClient.submit_wait` and ``run`` wait for capacity),
and one **worker loop** per slot that takes the next entry and runs it
through the shell — here the backend on the slot's thread, its engine's
cooperative yield points announced as ``progress`` edges; in the cluster a
round trip to the slot's shard.  Cache hits never occupy a slot.

Every method is thread-safe and runs on the caller's thread: one
re-entrant lock serialises the core and the queue.  Pure-Python cycle
simulation holds the GIL, so in-process the win is coalescing + caching +
overlap with I/O rather than parallel speedup — ``docs/SERVE.md`` states
the lock discipline and when to use the service vs the bare ``Simulator``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs.exposition import cache_families
from ..obs.metrics import MetricFamily
from ..obs.trace import get_tracer
from ..runtime.admission import (
    AdmissionShell,
    Entry,
    ServiceClosedError,
    ServiceEvent,
    Ticket,
)
from ..runtime.backends import execute_job_with_progress
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .queue import FairQueue, QueueFullError

__all__ = ["ServiceClient", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ServiceClient`.

    Parameters
    ----------
    max_workers:
        Worker threads, i.e. concurrent backend simulations.
    max_backlog:
        Bound on *queued* (admitted, not yet started) jobs; exceeding it is
        explicit backpressure: :class:`QueueFullError`.
    progress_interval:
        Cycle cadence of streaming ``progress`` events, forwarded to the
        simulation engine's cooperative yield points.
    """

    max_workers: int = 2
    max_backlog: int = 64
    progress_interval: int = 250_000

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.progress_interval <= 0:
            raise ValueError("progress_interval must be positive")


class ServiceClient(AdmissionShell):
    """Thread-safe simulation front door: submit, coalesce, stream, drain.

    The workers start with the object; use it as a context manager or call
    :meth:`close` explicitly.

    Parameters
    ----------
    cache, cache_dir:
        A ready-made :class:`ResultCache`, or the directory to open one in
        (ignored when ``cache`` is given); uncached when both are ``None``.
    config:
        Service tunables (worker count, backlog bound, progress cadence);
        the cluster passes its ``ClusterConfig``, which derives the first two.
    on_event:
        Optional callback handed every :class:`ServiceEvent` as it is
        announced, ``seq`` counted from 0.  It runs under the service's lock
        on whichever thread announces — keep it cheap, never block in it;
        it may read :meth:`snapshot`.  Without it no event object is built.
    """

    _transport = "thread"

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ServiceConfig] = None,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        super().__init__(cache, cache_dir, on_event)
        self.config = config or ServiceConfig()
        self._work_available = threading.Condition(self._lock)
        self._space_freed = threading.Condition(self._lock)
        self._queue: FairQueue[Entry] = FairQueue(
            self.config.max_backlog, on_depth=self._on_queue_depth
        )
        gauge = self.metrics.gauge
        gauge(
            "repro_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            self._queue_depth,
        )
        gauge(
            "repro_inflight",
            "Unique jobs between admission and completion.",
            lambda: len(self._core.inflight),
        )
        gauge(
            "repro_coalescing_hit_rate",
            "Fraction of submissions served by riding an in-flight duplicate.",
            lambda: self.counters.coalescing_hit_rate,
        )
        gauge(
            "repro_cache_hit_rate",
            "Fraction of submissions resolved from the cache (or journal).",
            lambda: self.counters.cache_hit_rate,
        )
        #: Set by :meth:`close`; read-only for callers.
        self.closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(self.config.max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Shut down: refuse new work, settle in-flight work, stop workers.

        With ``drain=True`` (the default) every admitted job — queued or
        executing — runs to completion and resolves its waiters.  With
        ``drain=False`` queued-but-unstarted entries are *cancelled* (their
        waiters receive :class:`ServiceClosedError`) while entries already
        executing on a worker still finish and resolve normally.  Returns
        once the workers have exited; idempotent.
        """
        abandoned: List[Entry] = []
        with self._lock:
            if not self.closed:
                self.closed = True
                if not drain:
                    queued = [entry for entry, *_ in self._queue.drain()]
                    abandoned = self._core.abandon(queued, "service closed")
                # Workers leave once the queue is empty.
                self._work_available.notify_all()
                self._space_freed.notify_all()
        for entry in abandoned:
            entry.resolve()
        for worker in self._workers:
            worker.join()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Submit one job; never blocks on simulation.

        Returns a :class:`~repro.runtime.admission.Ticket` whose future
        resolves to the outcome (already done on a cache hit).  Raises
        :class:`QueueFullError` when the backlog bound is hit (use
        :meth:`submit_wait` to wait instead) and :class:`ServiceClosedError`
        after :meth:`close`.
        """
        with self._lock:
            return self._admit(job, client_name, priority, count_refusal=True)

    def submit_wait(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Like :meth:`submit`, but waits for backlog capacity instead of
        raising :class:`QueueFullError` (coalesced and cached submissions
        never wait)."""
        with self._lock:
            return self._admit(job, client_name, priority)

    def _admit(
        self,
        job: SimJob,
        client: str,
        priority: int,
        batch: Optional[List[Entry]] = None,
        count_refusal: bool = False,
    ) -> Ticket:
        """One admission, under the lock; a new entry is queued for the
        worker slots, not added to ``batch``.  A fail-fast submission
        (``count_refusal``) records a :class:`QueueFullError` bounce;
        otherwise a full backlog is waited out — backpressure, not a
        rejection, and the retry must not count the submission twice."""
        while True:
            if self.closed:
                raise ServiceClosedError("service is closed")
            try:
                ticket = self._core.admit(
                    job, client, self._enqueue, priority, count_refusal=count_refusal
                )
            except QueueFullError:
                if count_refusal:
                    raise
                # Releases the lock, however deeply held, until a worker
                # pops or a close makes the retry raise the typed error.
                self._space_freed.wait()
                continue
            if not (ticket.coalesced or ticket.cache_hit):
                self._core.announce("queued", self._core.inflight[ticket.job_hash])
                self._work_available.notify()
            return ticket

    def _enqueue(self, entry: Entry) -> None:
        """The core's ``place`` hook: the bounded queue accepts or bounces."""
        self._queue.push(entry, entry.client, entry.priority)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def _on_queue_depth(self, depth: int) -> None:
        """Queue depth change → tracer counter track (when tracing)."""
        tracer = get_tracer()
        if tracer is not None:
            tracer.counter("queue_depth", {"jobs": depth})

    def _queue_depth(self) -> int:
        return len(self._queue)

    def stats_dict(self) -> Dict[str, object]:
        """Service counters and hit rates (readable after close)."""
        return self.counters.as_dict()

    stats = stats_dict

    def collect(self) -> List[MetricFamily]:
        """The ``/metrics`` families of :attr:`metrics`: collected under the
        lock, so one scrape is one consistent cut as :meth:`snapshot` is,
        plus the cache's families from a directory pass made after the
        lock is released."""
        with self._lock:
            families = self.metrics.collect()
        if self.cache is not None:
            families.extend(cache_families(self.cache.stats()))
        return families

    # ------------------------------------------------------------------
    # Workers.
    # ------------------------------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        take = partial(self._take, slot)
        while self._run_entry(take) is not None:
            pass

    def _take(self, slot: int) -> Optional[Entry]:
        """Worker ``slot``'s next entry (``None`` once closed and drained)."""
        while not len(self._queue):
            if self.closed:
                return None
            self._work_available.wait()
        entry, *_ = self._queue.pop()
        entry.executor = slot
        self._space_freed.notify_all()
        return entry

    def _simulate(self, entry: Entry) -> SimOutcome:
        """The backend run, its yield points announced as ``progress``."""

        def progress(cycles: int) -> None:
            # Engine yield point, on this worker thread → the emit point.
            with self._lock:
                self._core.announce("progress", entry, cycles=cycles)

        return execute_job_with_progress(
            entry.job,
            progress_callback=progress,
            progress_interval=self.config.progress_interval,
        )
