"""Admission queue of the simulation service: priority + per-client fairness.

:class:`FairQueue` is the bounded backlog behind
:class:`~repro.serve.client.ServiceClient`.  It orders work by

1. **priority** — lower numbers pop first (``0`` is the default);
2. **per-client round-robin** — among clients with queued work at the same
   priority, pops rotate client-by-client, so one client flooding the
   backlog cannot starve the others;
3. **FIFO within one client** — a client's own submissions keep their
   submission order.

The backlog is bounded: pushing beyond ``max_backlog`` entries raises the
typed :class:`QueueFullError` — *explicit backpressure* rather than
unbounded memory growth.  Callers that prefer waiting to failing use the
service's ``submit_wait()`` path (which its batch ``run()`` builds on): it
retries the push when capacity frees up.

The queue is a plain single-threaded data structure; the service only
touches it while holding its one lock.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """The service backlog is full.

    Attributes
    ----------
    client:
        The client whose submission was rejected.
    backlog:
        Entries queued at rejection time.
    limit:
        The bound that was exceeded.
    """

    def __init__(self, client: str, backlog: int, limit: int) -> None:
        self.client = client
        self.backlog = backlog
        self.limit = limit
        super().__init__(
            f"service backlog is full ({backlog}/{limit}); retry later, use the "
            f"waiting submission path (submit_wait/run), or raise max_backlog"
        )


class FairQueue(Generic[T]):
    """Bounded priority queue with round-robin fairness across clients."""

    def __init__(
        self,
        max_backlog: int,
        on_depth: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_backlog <= 0:
            raise ValueError("max_backlog must be positive")
        self.max_backlog = max_backlog
        #: Optional observer called with the new depth after every size
        #: change (the service feeds the tracer's queue-depth counter
        #: track from here); observer failures never affect the queue.
        self.on_depth = on_depth
        # priority -> (client -> FIFO of items); OrderedDict gives the
        # round-robin rotation via move_to_end on every pop.
        self._levels: Dict[int, "OrderedDict[str, Deque[T]]"] = {}
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _notify_depth(self) -> None:
        if self.on_depth is not None:
            try:
                self.on_depth(self._size)
            except Exception:  # noqa: BLE001 — observers cannot break admission
                pass

    # ------------------------------------------------------------------
    def push(self, item: T, client: str, priority: int = 0) -> None:
        """Admit ``item``; raise :class:`QueueFullError` when the backlog is full."""
        if self._size >= self.max_backlog:
            raise QueueFullError(client, self._size, self.max_backlog)
        level = self._levels.setdefault(priority, OrderedDict())
        if client not in level:
            level[client] = deque()
        level[client].append(item)
        self._size += 1
        self._notify_depth()

    def pop(self) -> Optional[Tuple[T, str, int]]:
        """Remove and return ``(item, client, priority)``; ``None`` if empty.

        Picks the lowest priority level, then the least-recently-served
        client at that level, then that client's oldest entry.
        """
        if self._size == 0:
            return None
        priority = min(self._levels)
        level = self._levels[priority]
        client, fifo = next(iter(level.items()))
        item = fifo.popleft()
        if fifo:
            level.move_to_end(client)  # round-robin: others go first next time
        else:
            del level[client]
        if not level:
            del self._levels[priority]
        self._size -= 1
        self._notify_depth()
        return item, client, priority

    def drain(self) -> List[Tuple[T, str, int]]:
        """Remove and return every queued entry (used on non-draining close)."""
        drained: List[Tuple[T, str, int]] = []
        while self._size:
            entry = self.pop()
            assert entry is not None
            drained.append(entry)
        return drained
