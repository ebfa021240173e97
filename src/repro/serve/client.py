"""The blocking client of the in-process simulation service.

:class:`ServiceClient` is what scripts, tests, the CLI, each cluster shard
and ``Simulator(service=...)`` hold: it opens the cache, builds one
:class:`~repro.serve.service.SimulationService`, keeps a bounded mirror of
its events, and speaks the ``client_name=`` vocabulary
:class:`~repro.cluster.service.ClusterService` shares::

    with ServiceClient(cache_dir=path) as client:
        ticket = client.submit(job, client_name="alice")
        outcome = client.result(ticket)            # blocks
        outcomes = client.run(jobs)                # batch, order preserved

It starts no thread of its own: every method is a call into the service on
the caller's thread.  Duplicate in-flight submissions coalesce, cache hits
resolve without queueing, a full backlog raises
:class:`~repro.serve.queue.QueueFullError` from :meth:`submit` (:meth:`run`
waits for capacity instead), :meth:`close` drains by default.
:meth:`events` reads a thread-safe ring of the latest :data:`EVENT_BUFFER`.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .core import Ticket
from .events import ServiceEvent
from .service import ServiceConfig, SimulationService

__all__ = ["EVENT_BUFFER", "ServiceClient"]

#: Events the mirror retains.  A ring, not a log: a shard worker or a daemon
#: never reads :meth:`ServiceClient.events`; ~3 per request must not pile up.
EVENT_BUFFER = 4096


class ServiceClient:
    """Blocking front door of one :class:`SimulationService`.

    Parameters
    ----------
    cache, cache_dir:
        A ready-made :class:`ResultCache`, or the directory to open one in
        (ignored when ``cache`` is given); uncached when both are ``None``.
    config:
        Service tunables (worker count, backlog bound, progress cadence).
    on_event:
        Optional callback streamed every :class:`ServiceEvent` as it is
        published (invoked under the service's lock — keep it cheap).
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
        self.service = SimulationService(cache=cache, config=config)
        self.service.add_listener(self._events.append)
        if on_event is not None:
            self.service.add_listener(on_event)

    # ------------------------------------------------------------------
    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> Ticket:
        """Submit one job; raises :class:`QueueFullError` on a full backlog
        and :class:`~repro.serve.service.ServiceClosedError` after close."""
        return self.service.submit(job, client=client_name, priority=priority)

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
        the bounded backlog by waiting for capacity, never rejection.
        Duplicates within the batch deterministically coalesce."""
        return self.service.run(jobs, client=client_name, priority=priority)

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
        return self.service.stats.as_dict()

    stats = stats_dict

    def snapshot(self) -> Dict[str, object]:
        """Structured ops snapshot (queue depth, hit rates, per-worker
        executed counts, latency histogram)."""
        return self.service.snapshot()

    def describe(self) -> Dict[str, object]:
        return self.service.describe()

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut the service down; see :meth:`SimulationService.close`."""
        self.service.close(drain=drain)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
