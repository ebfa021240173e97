"""The asyncio simulation service: coalescing, fair admission, workers.

:class:`SimulationService` is the long-lived front door the ROADMAP's
"serves heavy traffic" goal asks for.  Admission — coalescing identical
in-flight requests onto one future, probing the
:class:`~repro.runtime.cache.ResultCache` before anything is scheduled — is
the :class:`~repro.serve.core.AdmissionCore`'s, shared with the cluster;
this module is the in-process *executor* around it:

* a **fair bounded admission queue** (:class:`~repro.serve.queue.FairQueue`)
  — priority first, round-robin across clients within a priority, FIFO
  within a client; a full backlog raises the typed
  :class:`~repro.serve.queue.QueueFullError` (or, on the ``submit_wait``
  path, cooperatively waits for capacity);
* a **worker pool** — cache hits never occupy a worker, and every fresh
  result is written back through the same cache;
* a **streaming event bus** (:mod:`repro.serve.events`) — submitted /
  coalesced / cache_hit / queued / started / progress / finished / failed /
  cancelled lifecycle events, with ``progress`` fed by the simulation
  engines' cooperative yield points (see ``docs/ENGINE.md``).

The service is single-loop: every public method must be called on the
event-loop thread (the sync :class:`~repro.serve.client.ServiceClient`
wraps that for threads, scripts and tests).  Backend simulations run on a
thread pool; pure-Python cycle simulation holds the GIL, so the win is
coalescing + caching + overlap with I/O rather than parallel speedup —
``docs/SERVE.md`` discusses when to use the service vs the bare
``Simulator``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.exposition import worker_families
from ..obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram
from ..obs.trace import get_tracer
from ..runtime.batch import execute_job_with_progress
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .core import AdmissionCore, Entry, ServiceClosedError, Stats, Ticket
from .events import EventBus, EventSubscription
from .queue import FairQueue, QueueFullError

__all__ = [
    "LatencyHistogram",
    "ServiceClosedError",
    "ServiceConfig",
    "SimulationService",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SimulationService`.

    Parameters
    ----------
    max_workers:
        Concurrent backend simulations (worker tasks and executor threads).
    max_backlog:
        Bound on *queued* (admitted, not yet started) jobs; exceeding it is
        explicit backpressure: :class:`QueueFullError`.
    max_backlog_per_client:
        Optional per-client share of the backlog (``None`` = no extra bound).
    progress_interval:
        Cycle cadence of streaming ``progress`` events, forwarded to the
        simulation engine's cooperative yield points.
    """

    max_workers: int = 2
    max_backlog: int = 64
    max_backlog_per_client: Optional[int] = None
    progress_interval: int = 250_000

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.progress_interval <= 0:
            raise ValueError("progress_interval must be positive")


#: Upper bucket bounds (seconds) of :class:`LatencyHistogram` — the
#: package-wide latency bounds of the obs layer (roughly logarithmic from
#: 1 ms to 30 s, which brackets every workload the repo's cycle engines
#: simulate).  The implicit final bucket is +inf.
LATENCY_BUCKETS: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS


class LatencyHistogram(Histogram):
    """The obs :class:`~repro.obs.metrics.Histogram` specialised to the
    package-wide latency bounds and the ``repro_latency_seconds`` exposition
    name; ``observe`` is a counter bump cheap enough for the completion
    path."""

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS) -> None:
        super().__init__(
            bounds,
            name="repro_latency_seconds",
            help="Admission-to-completion latency of executed jobs.",
        )


class SimulationService:
    """Async simulation front door: submit, coalesce, stream, drain.

    Use as an async context manager, or call :meth:`start` / :meth:`close`
    explicitly::

        async with SimulationService(cache=ResultCache(path)) as service:
            ticket = service.submit(job, client="alice")
            outcome = await ticket.outcome()
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.cache = cache
        self.config = config or ServiceConfig()
        self.stats = Stats("thread")
        #: The per-service metrics registry backing :attr:`stats`; the
        #: depth/inflight gauges read the live structures on collection.
        self.metrics = self.stats.registry
        self.metrics.gauge(
            "repro_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            fn=self.backlog,
        )
        self.metrics.gauge(
            "repro_inflight",
            "Unique jobs between admission and completion.",
            fn=self.inflight,
        )
        #: Admission-to-completion latency of executed jobs.
        self.latency = LatencyHistogram()
        self.metrics.register(self.latency)
        #: Jobs completed per worker slot — skew here means unfair pop
        #: order or one worker pinned on a long simulation.
        self.per_worker_executed: Dict[int, int] = {}
        #: Macro-step engine totals accumulated from executed outcomes.
        self.macro: Dict[str, int] = {"jumps": 0, "cycles_skipped": 0}
        self.metrics.add_callback(
            "repro_worker_executed_total",
            lambda: worker_families(self.per_worker_executed),
        )
        self.events = EventBus()
        self._core = AdmissionCore(
            self.stats,
            cache,
            new_future=lambda: self._loop.create_future(),
            emit=self.events.publish,
        )
        self._queue: FairQueue[Entry] = FairQueue(
            self.config.max_backlog,
            self.config.max_backlog_per_client,
            on_depth=self._on_queue_depth,
        )
        self._workers: List[asyncio.Task] = []
        self._work_available: Optional[asyncio.Semaphore] = None
        self._space_freed: Optional[asyncio.Condition] = None
        self._executor = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> "SimulationService":
        """Spawn the worker pool (idempotent)."""
        if self._started:
            return self
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._work_available = asyncio.Semaphore(0)
        self._space_freed = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="repro-serve"
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop(index))
            for index in range(self.config.max_workers)
        ]
        self._started = True
        return self

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Shut down: refuse new work, settle in-flight work, stop workers.

        With ``drain=True`` (the default) every admitted job — queued or
        executing — runs to completion and resolves its waiters.  With
        ``drain=False`` queued-but-unstarted entries are *cancelled* (their
        waiters receive :class:`ServiceClosedError`) while entries already
        executing on a worker still finish and resolve normally.
        """
        if not self._started or self._closed:
            self._closed = True
            self.events.close()
            return
        self._closed = True
        # Wake any submit_wait callers parked on backpressure.
        async with self._space_freed:
            self._space_freed.notify_all()
        if not drain:
            queued = [entry for entry, _client, _priority in self._queue.drain()]
            for entry in self._core.abandon(queued, "service closed"):
                entry.resolve()
        # Wait for every remaining in-flight entry (queued ones too, when
        # draining) to settle — exceptions included.
        pending = [entry.future for entry in self._core.inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.events.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, job: SimJob, client: str = "anon", priority: int = 0) -> Ticket:
        """Submit one job; never blocks.

        Returns a :class:`~repro.serve.core.Ticket` whose future resolves to
        the outcome.  Raises :class:`QueueFullError` when the backlog bound
        is hit (use :meth:`submit_wait` for cooperative backpressure
        instead) and :class:`ServiceClosedError` after :meth:`close`.

        Submissions made within one event-loop turn are atomic with respect
        to the workers, so a burst of identical jobs submitted back-to-back
        deterministically coalesces onto a single backend execution.
        """
        return self._submit(job, client, priority, record_rejection=True)

    def _submit(
        self, job: SimJob, client: str, priority: int, record_rejection: bool
    ) -> Ticket:
        if self._closed:
            raise ServiceClosedError("service is closed")
        if not self._started:
            raise ServiceClosedError("service not started (use 'async with' or start())")
        # Fail-fast submissions record a QueueFullError bounce; the waiting
        # path (submit_wait) retries instead — that is backpressure, not a
        # rejection, and it must not double-count the submission.
        ticket = self._core.admit(
            job, client, self._enqueue, priority, count_refusal=record_rejection
        )
        if not (ticket.coalesced or ticket.cache_hit):
            self._core.announce("queued", self._core.inflight[ticket.job_hash])
            self._work_available.release()
        return ticket

    def _enqueue(self, entry: Entry) -> None:
        """The core's ``place`` hook: the bounded queue accepts or bounces."""
        self._queue.push(entry, entry.client, entry.priority)
        # Failures are also reported via events; retrieving the exception
        # here keeps abandoned tickets from warning at garbage collection.
        entry.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )

    def _has_capacity(self, client: str) -> bool:
        if len(self._queue) >= self.config.max_backlog:
            return False
        limit = self.config.max_backlog_per_client
        return limit is None or self._queue.client_backlog(client) < limit

    async def submit_wait(
        self, job: SimJob, client: str = "anon", priority: int = 0
    ) -> Ticket:
        """Like :meth:`submit`, but waits for backlog capacity instead of
        raising :class:`QueueFullError` (coalesced and cached submissions
        never wait)."""
        while True:
            try:
                return self._submit(job, client, priority, record_rejection=False)
            except QueueFullError:
                async with self._space_freed:
                    while not self._has_capacity(client) and not self._closed:
                        await self._space_freed.wait()
                if self._closed:
                    raise ServiceClosedError("service closed while waiting for capacity")

    async def run(
        self,
        jobs: Sequence[SimJob],
        client: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and await every outcome, in submission order.

        Duplicates *within the batch* always coalesce (each unique job is
        submitted before any other coroutine can run), and unique jobs use
        the waiting submission path, so arbitrarily large batches flow
        through the bounded backlog without rejection.
        """
        tickets: List[Ticket] = []
        for job in jobs:
            tickets.append(await self.submit_wait(job, client=client, priority=priority))
        return [await ticket.outcome() for ticket in tickets]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def subscribe(self) -> EventSubscription:
        """Async-iterable stream of every subsequent service event."""
        return self.events.subscribe()

    def add_listener(self, listener) -> None:
        """Register a sync callback invoked (on the loop thread) per event."""
        self.events.add_listener(listener)

    def backlog(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        return len(self._queue)

    def _on_queue_depth(self, depth: int) -> None:
        """Queue depth change → tracer counter track (when tracing)."""
        tracer = get_tracer()
        if tracer is not None:
            tracer.counter("queue_depth", {"jobs": depth})

    def inflight(self) -> int:
        """Unique jobs somewhere between admission and completion."""
        return len(self._core.inflight)

    def snapshot(self) -> Dict[str, object]:
        """Structured ops snapshot: depth, rates, skew, latency.

        Everything an operator (or the cluster supervisor's pong frames)
        wants in one picklable dict: current queue depth and in-flight
        count, the coalescing / cache hit rates, per-worker executed
        counts, and the admission-to-completion latency histogram.
        """
        return {
            "queue_depth": self.backlog(),
            "inflight": self.inflight(),
            **self.stats.as_dict(),
            "per_worker_executed": dict(self.per_worker_executed),
            "latency": self.latency.as_dict(),
            "macro": dict(self.macro),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def describe(self) -> Dict[str, object]:
        return {
            "config": dataclasses.asdict(self.config),
            "cache": self.cache.stats() if self.cache is not None else None,
            "backlog": self.backlog(),
            "inflight": self.inflight(),
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # Workers.
    # ------------------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        assert self._work_available is not None
        while True:
            await self._work_available.acquire()
            popped = self._queue.pop()
            async with self._space_freed:
                self._space_freed.notify_all()
            if popped is None:
                continue  # entry was drained by a non-draining close
            entry, _client, _priority = popped
            await self._execute_entry(entry, index)

    async def _execute_entry(self, entry: Entry, worker_index: int = 0) -> None:
        self._core.announce("started", entry)

        def progress(cycles: int) -> None:
            # Engine yield point, on the executor thread → the event bus.
            self._loop.call_soon_threadsafe(self._emit_progress, entry, cycles)

        def run_and_write_back() -> SimOutcome:
            # Executed on the worker thread: the cache write-back happens
            # here too, so pickle/disk latency never blocks the event loop
            # (ResultCache.put is atomic, so a concurrent loop-thread probe
            # sees either nothing or the complete entry).  A failing
            # write-back is demoted to a warning — the simulation result
            # exists and must reach its waiters.
            outcome = execute_job_with_progress(
                entry.job,
                progress_callback=progress,
                progress_interval=self.config.progress_interval,
            )
            if self.cache is not None:
                tracer = get_tracer()
                if tracer is not None:
                    tracer.begin("write_back", entry.key, cat="job")
                try:
                    self.cache.put(entry.key, outcome)
                except Exception as error:  # noqa: BLE001 — best-effort cache
                    import warnings

                    warnings.warn(
                        f"result-cache write-back failed for "
                        f"{entry.key[:12]}: {error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                finally:
                    if tracer is not None:
                        tracer.maybe_end("write_back", entry.key, cat="job")
            return outcome

        try:
            outcome = await self._loop.run_in_executor(
                self._executor, run_and_write_back
            )
        except Exception as error:  # noqa: BLE001 — surfaced to every waiter
            self._core.settle(entry.key, error=error)
            entry.resolve()
            return
        self.per_worker_executed[worker_index] = (
            self.per_worker_executed.get(worker_index, 0) + 1
        )
        macro = outcome.metrics.get("macro_stats")
        if isinstance(macro, dict):
            self.macro["jumps"] += int(macro.get("jumps", 0))
            self.macro["cycles_skipped"] += int(macro.get("cycles_skipped", 0))
        self.latency.observe(time.monotonic() - entry.admitted_at)
        self._core.settle(entry.key, outcome)
        entry.resolve()

    def _emit_progress(self, entry: Entry, cycles: int) -> None:
        if not entry.future.done():
            self._core.announce("progress", entry, cycles=cycles)
