"""Bounded FIFO queues used throughout the cycle-level models.

A buffer that holds words on its own — the quantizer's pending queue — is a
simple bounded first-in/first-out queue with valid/ready semantics.  The
:class:`Fifo` class below models exactly that: a producer may ``push`` only
while the FIFO is not full, a consumer may ``pop`` only while it is not
empty, and occupancy statistics are tracked so utilization and area analyses
can reason about buffer sizing.

A DataMaestro's FIFOs are counts, not queues: its channels move words as
rows, so the address FIFO is the issue cursor against the bundles generated
and each channel's data FIFO is a
:class:`~repro.core.streamer.ChannelFifo` — the counts over the streamer's
rows between the channel's deliveries (or, writing, the streamer's issues)
and its pops (pushes), plus a high-water mark, raising :class:`FifoError`
where a :class:`Fifo` would.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")


class FifoError(RuntimeError):
    """Raised when a FIFO protocol rule is violated (push-when-full, ...)."""


class Fifo(Generic[T]):
    """A bounded FIFO with valid/ready-style accessors.

    Parameters
    ----------
    depth:
        Maximum number of entries the FIFO can hold.  Must be positive.
    name:
        Optional name used in error messages and debugging output.
    """

    def __init__(self, depth: int, name: str = "fifo") -> None:
        if depth <= 0:
            raise ValueError(f"FIFO depth must be positive, got {depth}")
        self.depth = int(depth)
        self.name = name
        #: The stored entries, oldest first — one deque for the FIFO's whole
        #: life, so per-cycle code may hold it and test ``if fifo.entries`` /
        #: ``len(fifo.entries)`` without a call.  Only the methods below
        #: change it (they keep the push/pop/occupancy statistics).
        self.entries: Deque[T] = deque()
        self.total_pushes = 0
        self.total_pops = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    # Status queries (the "valid"/"ready" view of the FIFO).
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.depth

    # ------------------------------------------------------------------
    # Data movement.
    # ------------------------------------------------------------------
    def push(self, item: T) -> None:
        """Append ``item``; raises :class:`FifoError` when full."""
        entries = self.entries
        if len(entries) >= self.depth:
            raise FifoError(f"push into full FIFO '{self.name}' (depth={self.depth})")
        entries.append(item)
        self.total_pushes += 1
        if len(entries) > self.max_occupancy:
            self.max_occupancy = len(entries)

    def pop(self) -> T:
        """Remove and return the oldest entry; raises when empty."""
        if not self.entries:
            raise FifoError(f"pop from empty FIFO '{self.name}'")
        self.total_pops += 1
        return self.entries.popleft()

    def clear(self) -> None:
        """Drop all entries (used when re-configuring between kernels)."""
        self.entries.clear()

    def replace_entries(self, items: Iterable[T]) -> None:
        """Swap the stored entries without touching the push/pop counters.

        Used by the macro-step fast path, which bulk-applies the span's
        push/pop counts separately and then installs the window of entries
        the per-cycle loop would have left behind.
        """
        entries = list(items)
        if len(entries) > self.depth:
            raise FifoError(
                f"replace_entries overfills FIFO '{self.name}' "
                f"({len(entries)} > depth {self.depth})"
            )
        self.entries.clear()
        self.entries.extend(entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fifo(name={self.name!r}, depth={self.depth}, "
            f"occupancy={len(self.entries)})"
        )
