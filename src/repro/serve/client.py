"""Synchronous facade over the asyncio simulation service.

:class:`ServiceClient` owns a private event loop on a daemon thread and
proxies the :class:`~repro.serve.service.SimulationService` API into plain
blocking calls, so scripts, tests, the CLI and the runtime integration
(``Simulator(service=...)``) can use the service without touching
``asyncio``::

    from repro.serve import ServiceClient

    with ServiceClient(cache_dir=path) as client:
        ticket = client.submit(job, client_name="alice")
        outcome = client.result(ticket)            # blocks
        outcomes = client.run(jobs)                # batch, order preserved

Semantics mirror the async service exactly: duplicate in-flight
submissions coalesce, cache hits resolve without queueing, a full backlog
raises :class:`~repro.serve.queue.QueueFullError` from :meth:`submit`
(while :meth:`run` applies cooperative backpressure instead), and
:meth:`close` drains by default.  The most recent :data:`EVENT_BUFFER`
events are mirrored into a thread-safe ring readable via :meth:`events`;
pass ``on_event=`` to stream every event as it happens (the callback runs
on the service's loop thread).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .core import ServiceClosedError, Ticket
from .events import ServiceEvent
from .service import ServiceConfig, SimulationService

__all__ = ["EVENT_BUFFER", "ServiceClient"]

#: Events the client's mirror retains.  A ring, not a log: a shard worker
#: or a long-lived daemon never reads :meth:`ServiceClient.events`, and
#: ~3 events per request must not accumulate for the process lifetime.
EVENT_BUFFER = 4096


class ServiceClient:
    """Blocking wrapper that runs a :class:`SimulationService` on a thread.

    Parameters
    ----------
    cache:
        A ready-made :class:`ResultCache`, or ``None``.
    cache_dir:
        Convenience alternative to ``cache`` (ignored when ``cache`` given).
        When both are ``None`` the service runs uncached.
    config:
        Service tunables (worker count, backlog bound, progress cadence).
    on_event:
        Optional callback streamed every :class:`ServiceEvent` as it is
        published (invoked on the loop thread — keep it cheap).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ServiceConfig] = None,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self._events: "deque[ServiceEvent]" = deque(maxlen=EVENT_BUFFER)
        # Validate the whole configuration (ServiceConfig bounds, queue
        # bounds) *before* starting the loop thread, so a bad config raises
        # cleanly instead of leaking a running daemon thread.
        self.service = SimulationService(cache=cache, config=config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client", daemon=True
        )
        self._thread.start()
        self._closed = False

        async def _start() -> None:
            await self.service.start()
            self.service.add_listener(self._events.append)
            if on_event is not None:
                self.service.add_listener(on_event)

        self._call(_start())

    # ------------------------------------------------------------------
    def _call(self, coroutine):
        """Run ``coroutine`` on the service loop and return its result."""
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def _on_loop(self, fn: Callable[[], object]):
        """Call ``fn()`` on the loop thread, where the service's state
        lives — or directly once closed: the loop is stopped then, so a
        direct read cannot race the service."""
        if self._closed:
            return fn()

        async def _run():
            return fn()

        return self._call(_run())

    def _ensure_open(self) -> None:
        """Mirror the async API: submissions to a closed client raise the
        typed error, not an opaque 'event loop is closed' RuntimeError."""
        if self._closed:
            raise ServiceClosedError("client is closed")

    # ------------------------------------------------------------------
    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Submit one job; raises :class:`QueueFullError` on a full backlog
        and :class:`~repro.serve.service.ServiceClosedError` after close."""
        self._ensure_open()
        ticket = self._on_loop(
            lambda: self.service.submit(job, client=client_name, priority=priority)
        )
        # The loop-side ticket's future belongs to the loop thread; hand
        # the caller the same ticket over a thread-safe future.
        future = asyncio.run_coroutine_threadsafe(ticket.outcome(), self._loop)
        return dataclasses.replace(ticket, future=future)

    def result(self, ticket: Ticket, timeout: Optional[float] = None) -> SimOutcome:
        return ticket.result(timeout)

    def run(
        self,
        jobs: Sequence[SimJob],
        client_name: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and block for every outcome, in submission order.

        Uses the waiting submission path: oversized batches flow through
        the bounded backlog with cooperative backpressure, never rejection.
        Duplicates within the batch deterministically coalesce.
        """
        self._ensure_open()
        return self._call(
            self.service.run(list(jobs), client=client_name, priority=priority)
        )

    # ------------------------------------------------------------------
    def events(self, clear: bool = False) -> List[ServiceEvent]:
        """The retained events, oldest first (optionally draining them)."""
        if not clear:
            return list(self._events)
        # A concurrent publish only ever appends (evicting from the left
        # when full), so the ring never holds fewer than ``count`` events.
        count = len(self._events)
        return [self._events.popleft() for _ in range(count)]

    def stats_dict(self) -> Dict[str, object]:
        """Service counters (coalescing/cache hit rates included) — the
        same call :class:`~repro.cluster.service.ClusterService` answers.
        Readable after close, like :meth:`snapshot` and :meth:`describe`."""
        return self._on_loop(self.service.stats.as_dict)

    stats = stats_dict

    def snapshot(self) -> Dict[str, object]:
        """Structured ops snapshot (queue depth, hit rates, per-worker
        executed counts, latency histogram) — see
        :meth:`SimulationService.snapshot`."""
        return self._on_loop(self.service.snapshot)

    def describe(self) -> Dict[str, object]:
        return self._on_loop(self.service.describe)

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut the service down (see :meth:`SimulationService.close`) and
        stop the loop thread.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._call(self.service.close(drain=drain))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
