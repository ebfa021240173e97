"""Synchronous facade over the asyncio simulation service.

:class:`ServiceClient` owns a private event loop on a daemon thread and
proxies the :class:`~repro.serve.service.SimulationService` API into plain
blocking calls, so scripts, tests, the CLI and ``Simulator(service=...)``
can use the service without touching ``asyncio``::

    with ServiceClient(cache_dir=path) as client:
        ticket = client.submit(job, client_name="alice")
        outcome = client.result(ticket)            # blocks
        outcomes = client.run(jobs)                # batch, order preserved

Semantics mirror the async service: duplicate in-flight submissions
coalesce, cache hits resolve without queueing, a full backlog raises
:class:`~repro.serve.queue.QueueFullError` from :meth:`submit` (:meth:`run`
applies cooperative backpressure instead), :meth:`close` drains by default.
:meth:`events` reads a thread-safe ring of the latest :data:`EVENT_BUFFER`.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .core import ServiceClosedError, Ticket
from .events import ServiceEvent
from .service import ServiceConfig, SimulationService

__all__ = ["EVENT_BUFFER", "ServiceClient"]

#: Events the mirror retains.  A ring, not a log: a shard worker or a daemon
#: never reads :meth:`ServiceClient.events`; ~3 per request must not pile up.
EVENT_BUFFER = 4096


def _settle(target: Future, produce: Callable[[], object]) -> None:
    """End ``target`` the way ``produce()`` ends: result or exception."""
    try:
        target.set_result(produce())
    except BaseException as error:  # noqa: BLE001 — re-raised to the waiter
        target.set_exception(error)


def _bridged(source: "asyncio.Future") -> Future:
    """A thread-safe future ending as ``source`` does (loop thread only):
    copied now if ``source`` is done, by its done-callback otherwise."""
    target: Future = Future()
    if source.done():
        _settle(target, source.result)
    else:
        source.add_done_callback(lambda done: _settle(target, done.result))
    return target


class ServiceClient:
    """Blocking wrapper that runs a :class:`SimulationService` on a thread.

    Parameters
    ----------
    cache, cache_dir:
        A ready-made :class:`ResultCache`, or the directory to open one in
        (ignored when ``cache`` is given); uncached when both are ``None``.
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
        # Validate the whole configuration *before* starting the loop
        # thread: a bad config raises cleanly, leaking no daemon thread.
        self.service = SimulationService(cache=cache, config=config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client", daemon=True
        )
        self._thread.start()
        #: Orders "queue a call on the loop" against :meth:`close`.
        self._gate = threading.Lock()
        self._closed = False
        self.service.add_listener(self._events.append)
        if on_event is not None:
            self.service.add_listener(on_event)
        asyncio.run_coroutine_threadsafe(self.service.start(), self._loop).result()

    # ------------------------------------------------------------------
    def _on_loop(self, fn: Callable[[], object], direct_when_closed: bool = False):
        """Call ``fn()`` on the loop thread, where the service's state
        lives: one ``call_soon_threadsafe`` of a plain function, no Task.
        Under the gate the call is queued ahead of :meth:`close` or gets the
        typed error — a read runs directly: the loop is stopped by then."""
        done: Future = Future()
        with self._gate:
            if not self._closed:
                self._loop.call_soon_threadsafe(_settle, done, fn)
            elif direct_when_closed:
                _settle(done, fn)
            else:
                raise ServiceClosedError("client is closed")
        return done.result()

    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Submit one job; raises :class:`QueueFullError` on a full backlog
        and :class:`~repro.serve.service.ServiceClosedError` after close."""

        def hop() -> Ticket:
            ticket = self.service.submit(job, client=client_name, priority=priority)
            # The loop's future, thread-safe: already done on a hit.
            ticket.future = _bridged(ticket.future)
            return ticket

        return self._on_loop(hop)

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
        Duplicates within the batch deterministically coalesce."""

        def start() -> Future:
            batch = self.service.run(list(jobs), client=client_name, priority=priority)
            return _bridged(asyncio.ensure_future(batch))

        return self._on_loop(start).result()

    # ------------------------------------------------------------------
    def events(self, clear: bool = False) -> List[ServiceEvent]:
        """The retained events, oldest first (optionally draining them)."""
        if not clear:
            return list(self._events)
        # A concurrent publish only ever appends (evicting from the left
        # when full), so the ring never shrinks below the length just read.
        return [self._events.popleft() for _ in range(len(self._events))]

    def stats_dict(self) -> Dict[str, object]:
        """Service counters and hit rates — the same call the cluster's
        ``ClusterService`` answers.  Readable after close, like the rest."""
        return self._on_loop(self.service.stats.as_dict, direct_when_closed=True)

    stats = stats_dict

    def snapshot(self) -> Dict[str, object]:
        """Structured ops snapshot (queue depth, hit rates, per-worker
        executed counts, latency histogram)."""
        return self._on_loop(self.service.snapshot, direct_when_closed=True)

    def describe(self) -> Dict[str, object]:
        return self._on_loop(self.service.describe, direct_when_closed=True)

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut the service down (see :meth:`SimulationService.close`) and
        stop the loop thread.  Idempotent."""
        with self._gate:
            if self._closed:
                return
            self._closed = True
            closing = self.service.close(drain=drain)
            drained = asyncio.run_coroutine_threadsafe(closing, self._loop)
        drained.result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
