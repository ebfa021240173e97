"""The simulation service shell: fair admission, worker slots.

:class:`ServiceClient` is what scripts, tests, the CLI and
``Simulator(service=...)`` hold, in-process or — as its subclass
:class:`~repro.cluster.service.ClusterService` — across shard processes::

    with ServiceClient(cache_dir=path) as client:
        ticket = client.submit(job, client_name="alice")
        outcome = ticket.result()                  # blocks
        outcomes = client.run(jobs)                # batch, order preserved

Admission — coalescing identical in-flight requests onto one future,
probing the :class:`~repro.runtime.cache.ResultCache` before anything is
scheduled, counting, announcing each lifecycle edge — is the
:class:`~repro.runtime.admission.AdmissionCore`'s, shared with
``Simulator``; this module is the shell around it that both transports
run:

* a **fair admission queue** (:class:`~repro.serve.queue.FairQueue`) —
  priority first, round-robin across clients within a priority, FIFO
  within a client; a full backlog raises the typed
  :class:`~repro.serve.queue.QueueFullError` from :meth:`~ServiceClient.submit`
  (:meth:`~ServiceClient.submit_wait` and :meth:`~ServiceClient.run` wait for
  capacity instead);
* one **worker loop** per slot — a slot pops the next entry, runs it
  (:meth:`~ServiceClient._execute`: here the backend on the slot's thread,
  with the result written back through the same cache; in the cluster a
  round trip to the slot's shard) and settles it; cache hits never occupy
  a slot;
* ``progress`` edges fed by the simulation engines' cooperative yield
  points (see ``docs/ENGINE.md``), announced like every other edge.

Every method is thread-safe and runs on the caller's thread: one
re-entrant lock serialises the core and the queue.  Pure-Python cycle
simulation holds the GIL, so in-process the win is coalescing + caching +
overlap with I/O rather than parallel speedup — ``docs/SERVE.md`` states
the lock discipline and when to use the service vs the bare ``Simulator``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..obs.exposition import cache_families
from ..obs.metrics import MetricFamily
from ..obs.trace import get_tracer
from ..runtime.admission import (
    AdmissionCore,
    Entry,
    ServiceClosedError,
    ServiceEvent,
    Stats,
    Ticket,
)
from ..runtime.backends import execute_job_with_progress
from ..runtime.cache import ResultCache, write_back
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


class ServiceClient:
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

    #: Which transport's counter rows :attr:`counters` carries.
    _transport = "thread"

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ServiceConfig] = None,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.cache = cache
        self.config = config or ServiceConfig()
        #: The service's counters (``stats()`` returns them as a dict).
        self.counters = Stats(self._transport)
        #: The per-service metrics registry: :attr:`counters`, the core's
        #: latency, macro totals and per-executor rows, and the shell's
        #: gauges.  :meth:`collect` renders it; :meth:`snapshot` reads the
        #: same objects.
        self.metrics = self.counters.registry
        #: Serialises the core and the queue.  Re-entrant so an ``on_event``
        #: callback (which runs under it) may read ``snapshot()``.
        self._lock = threading.RLock()
        self._work_available = threading.Condition(self._lock)
        self._space_freed = threading.Condition(self._lock)
        self._core = AdmissionCore(self.counters, cache, on_event)
        self._queue: FairQueue[Entry] = FairQueue(
            self.config.max_backlog, on_depth=self._on_queue_depth
        )
        gauge = self.metrics.gauge
        gauge(
            "repro_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            lambda: len(self._queue),
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
            while True:
                try:
                    return self._admit(job, client_name, priority, count_refusal=False)
                except QueueFullError:
                    # Releases the lock, however deeply held, until a worker
                    # pops or a close makes the retry raise the typed error.
                    self._space_freed.wait()

    def run(
        self,
        jobs: Sequence[SimJob],
        client_name: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and block for every outcome, in submission order.

        The whole batch is admitted under one hold of the lock (released
        only while waiting for capacity), so no worker can retire an entry
        in between: duplicates *within the batch* always coalesce, and
        arbitrarily large batches flow through the bounded backlog without
        rejection.
        """
        with self._lock:
            tickets = [self.submit_wait(job, client_name, priority) for job in jobs]
        return [ticket.result() for ticket in tickets]

    def _admit(
        self, job: SimJob, client: str, priority: int, count_refusal: bool
    ) -> Ticket:
        """One admission, under the lock."""
        if self.closed:
            raise ServiceClosedError("service is closed")
        # Fail-fast submissions record a QueueFullError bounce; the waiting
        # path retries instead — that is backpressure, not a rejection, and
        # it must not double-count the submission.
        ticket = self._core.admit(
            job, client, self._enqueue, priority, count_refusal=count_refusal
        )
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

    def stats_dict(self) -> Dict[str, object]:
        """Service counters and hit rates.  Readable after close, like the
        rest."""
        return self.counters.as_dict()

    stats = stats_dict

    def snapshot(self) -> Dict[str, object]:
        """The core's ops snapshot (``executed_by`` keyed by executor),
        one consistent cut, plus the cache's directory pass, made after
        the lock is released."""
        with self._lock:
            summary = self._core.snapshot(len(self._queue))
        summary["cache"] = self.cache.stats() if self.cache is not None else None
        return summary

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
        while True:
            with self._lock:
                while not len(self._queue):
                    if self.closed:
                        return
                    self._work_available.wait()
                entry, *_ = self._queue.pop()
                entry.executor = slot
                self._space_freed.notify_all()
                self._core.announce("started", entry)
            try:
                outcome, error = self._execute(entry, slot), None
            except Exception as caught:  # noqa: BLE001 — surfaced to every waiter
                outcome, error = None, caught
            with self._lock:
                self._core.settle(entry.key, outcome, error)
            entry.resolve()

    def _execute(self, entry: Entry, slot: int) -> SimOutcome:
        """Simulate on worker ``slot``'s thread and write back, off the lock.

        The write-back precedes ``settle``, so a later duplicate finds the
        in-flight entry or the cache, never neither (``ResultCache.put`` is
        atomic: a concurrent probe sees nothing or the complete entry).  A
        failing write-back is demoted to a warning — the simulation result
        exists and must reach its waiters.
        """

        def progress(cycles: int) -> None:
            # Engine yield point, on this worker thread → the emit point.
            with self._lock:
                self._core.announce("progress", entry, cycles=cycles)

        outcome = execute_job_with_progress(
            entry.job,
            progress_callback=progress,
            progress_interval=self.config.progress_interval,
        )
        write_back(self.cache, entry.key, outcome)
        return outcome
