"""Memory subsystem: interleaved crossbar + banked scratchpad arbitration.

The paper's memory subsystem (§III-A, Fig. 2(a)) is an ``N_BF``-banked
scratchpad behind an interleaved crossbar that gives every requester port
access to every bank.  Each bank is single ported, so when two requests
target the same bank in the same cycle one of them has to wait — a *bank
conflict*, the central performance effect the DataMaestro features are
designed to avoid.

:class:`MemorySubsystem` models this at cycle granularity:

* requesters (DataMaestro channels, by-name test requesters) queue word
  requests that are served strictly in order per requester;
* once per cycle :meth:`arbitrate` considers the head-of-queue request of
  every requester, grants at most one request per bank (round-robin among
  contenders) and performs the SRAM access — a read takes a bytes-like copy
  of the wordline there, so the word is what the bank held at the grant;
* ``read_latency`` cycles after the grant :meth:`deliver` hands the word
  over.  The crossbar fills the data FIFO: a stream channel's read lands in
  that channel's data FIFO directly (the Outstanding Request Manager
  reserved the slot at issue) and its write acknowledgements are only
  counted, so its in-flight requests are ``requests_issued -
  port.delivered``.  A by-name requester calls :meth:`collect`.

A word is a tuple, no record: a port's ``pending`` holds ``(bank, line,
data, request)`` (``data`` a write's word, ``request`` the by-name caller's
:class:`MemoryRequest`, each ``None`` otherwise), and each cycle that grants
appends one ``(ready_cycle, [(port, data, request), ...])`` batch to
``_in_flight``, ``data`` now a read's word or ``None``.

For the event-driven simulation kernel (:mod:`repro.engine`) the subsystem
additionally implements the next-event protocol: :meth:`next_event_cycle`
reports the earliest cycle at which the memory can change state (now, when
requests are pending or matured responses await collection; the earliest
``ready_cycle`` when only in-flight responses remain; never, when fully
idle), and :meth:`advance` fast-forwards the clock over a span the scheduler
has proven inactive.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..sim.fifo import Fifo
from ..sim.result import SteadyBail
from .addressing import BankGeometry
from .scratchpad import ScratchpadMemory


@dataclass(slots=True)
class MemoryRequest:
    """A by-name requester's word, from :meth:`MemorySubsystem.submit` to
    :meth:`MemorySubsystem.collect` (a stream word is a bare tuple).

    It is its own response: the grant stamps ``ready_cycle`` and, for a
    read, fills ``data`` with a bytes-like copy of the wordline (a slice of
    the scratchpad's buffer); a write's data is a uint8 array, dropped once
    stored.  ``port`` is resolved from ``requester`` at ``submit`` unless
    given.  ``bank`` / ``line`` default to ``-1``, which ``submit`` rejects.
    """

    requester: str
    is_write: bool
    bank: int = -1
    line: int = -1
    data: Union[bytearray, np.ndarray, None] = None
    strobe: Optional[np.ndarray] = None
    tag: Any = None
    port: Optional["MemoryPort"] = None
    ready_cycle: int = 0


#: A granted request is its own response, visible ``read_latency`` cycles
#: after the grant.
MemoryResponse = MemoryRequest


@dataclass(slots=True, eq=False)
class MemoryPort:
    """One requester's side of the crossbar: its queues and counters.

    Per-cycle requesters hold their port (:meth:`MemorySubsystem.bind`) and
    append their words to its ``pending``, so no cycle resolves a name.  A
    port joins arbitration at its first request
    (:meth:`MemorySubsystem.register`), never at ``bind``: registration
    order is contender order.
    """

    name: str
    #: ``(bank, line, data, request)`` words (see the module docstring).
    pending: Deque[tuple] = field(default_factory=deque)
    #: A by-name requester's matured responses awaiting :meth:`collect`
    #: (``deliver`` only moves matured ones, so everything here is ready).
    responses: List[MemoryResponse] = field(default_factory=list)
    granted: int = 0
    retries: int = 0
    #: Responses handed over so far, reads and write acknowledgements alike.
    delivered: int = 0
    registered: bool = False
    #: The channel's other half when a streamer binds this port: its data
    #: FIFO (``DataMaestro.fifos[i]`` beside ``DataMaestro.ports[i]``),
    #: never the streamer.  ``deliver`` appends a read's data to it and only
    #: counts a write's acknowledgement; a write channel's issue pops its
    #: data from it.  ``None`` for by-name requesters.
    sink: Optional[Fifo] = None


class MemorySubsystem:
    """Banked scratchpad + crossbar with one grant per bank per cycle."""

    def __init__(self, geometry: BankGeometry, read_latency: int = 1) -> None:
        if read_latency < 1:
            raise ValueError("read_latency must be at least 1 cycle")
        self.geometry = geometry
        self.read_latency = int(read_latency)
        self.scratchpad = ScratchpadMemory(geometry)
        self.cycle = 0
        #: Word accesses and bank conflicts.  The read and write totals
        #: include the DMA pre-pass (:meth:`add_uncounted_accesses`), which
        #: the ``dma_*`` pair also counts on its own.
        self.total_reads = 0
        self.total_writes = 0
        self.total_conflicts = 0
        self.dma_reads = 0
        self.dma_writes = 0
        #: Ports that have submitted, in first-submit order.  The order is
        #: behaviour: it is the contender order of :meth:`arbitrate`, the
        #: first-contention tie-break and the grant order into
        #: ``_in_flight``.
        self._requesters: Dict[str, MemoryPort] = {}
        #: One batch per granting cycle, in ``ready_cycle`` and grant order.
        self._in_flight: Deque[Tuple[int, list]] = deque()
        self._last_grant: Dict[int, str] = {}
        #: Requests queued and not yet granted, over all ports; a requester
        #: that appends to its ports' ``pending`` itself adds their number.
        self.pending_requests = 0

    # ------------------------------------------------------------------
    # Requester-facing API.
    # ------------------------------------------------------------------
    def bind(self, requester: str) -> MemoryPort:
        """Return ``requester``'s port; a new one stays unregistered."""
        return self._requesters.get(requester) or MemoryPort(requester)

    def register(self, port: MemoryPort) -> None:
        """Enter ``port`` into arbitration, behind every port already there."""
        if self._requesters.setdefault(port.name, port) is not port:
            raise ValueError(f"two ports bound as requester {port.name!r}")
        port.registered = True

    def check_banks(self, lowest: int, highest: int) -> None:
        """Reject bank indices outside ``[0, num_banks)``."""
        if lowest < 0 or highest >= self.geometry.num_banks:
            bank = lowest if lowest < 0 else highest
            raise ValueError(
                f"bank {bank} out of range (num_banks={self.geometry.num_banks})"
            )

    def submit(self, request: MemoryRequest) -> None:
        """Queue a request; it will be served in submission order.

        What its bank would reject is rejected here, in the bank's words: one
        that failed only at its grant would leave a grant counted, a request
        counted pending on no port, and the memory never idle.
        """
        self.check_banks(request.bank, request.bank)
        store = self.scratchpad.banks[request.bank]
        store._check_line(request.line)
        data = request.data if request.is_write else None
        if request.is_write:
            width = store.width_bytes
            if data is None:
                raise ValueError(f"write request without data from {request.requester!r}")
            shape = np.asarray(data, dtype=np.uint8).shape
            if shape != (width,):
                raise ValueError(f"write data must have {width} bytes, got shape {shape}")
            shape = np.shape(request.strobe)
            if request.strobe is not None and shape != (width,):
                raise ValueError(f"strobe must have {width} entries, got {shape}")
        port = request.port
        if port is None:
            port = request.port = self.bind(request.requester)
        if not port.registered:
            self.register(port)
        port.pending.append((request.bank, request.line, data, request))
        self.pending_requests += 1

    def pending_count(self, requester: str) -> int:
        """Number of not-yet-granted requests queued by ``requester``."""
        port = self._requesters.get(requester)
        return len(port.pending) if port else 0

    def outstanding_count(self, requester: str) -> int:
        """Pending plus granted-but-not-yet-delivered requests."""
        port = self._requesters.get(requester)
        if port is None:
            return 0
        in_flight = sum(p is port for _, batch in self._in_flight for p, _, _ in batch)
        return len(port.pending) + in_flight + len(port.responses)

    def collect(self, port: MemoryPort) -> List[MemoryResponse]:
        """Return (and consume) all responses ready for ``port``."""
        ready, port.responses = port.responses, []
        return ready

    # ------------------------------------------------------------------
    # Cycle behaviour.
    # ------------------------------------------------------------------
    def deliver(self) -> int:
        """Hand matured in-flight responses over to their requesters.

        Called at the start of every cycle, before the accelerators look at
        the data FIFOs.  Returns the number of responses that matured (the
        event scheduler uses this as an activity signal).
        """
        in_flight = self._in_flight
        now = self.cycle
        delivered = 0
        while in_flight and in_flight[0][0] <= now:
            _, batch = in_flight.popleft()
            for port, data, request in batch:
                port.delivered += 1
                sink = port.sink
                if sink is None:
                    port.responses.append(request)
                elif data is not None:  # a write is only acknowledged
                    entries = sink.entries
                    if len(entries) < sink.max_occupancy:
                        entries.append(data)
                        sink.total_pushes += 1
                    else:
                        # A new high-water mark is the only place an overflow
                        # (a request issued without a credit) can show.
                        sink.push(data)
            delivered += len(batch)
        return delivered

    def _pick_winner(self, bank: int, contenders: List[MemoryPort]) -> MemoryPort:
        """Round-robin selection among two or more contending ports for one bank."""
        last = self._last_grant.get(bank)
        if last is None:
            return contenders[0]
        # Grant the first requester strictly "after" the previous winner in
        # name order, wrapping around — a simple rotating-priority arbiter.
        first = after = None
        for port in contenders:
            name = port.name
            if first is None or name < first.name:
                first = port
            if name > last and (after is None or name < after.name):
                after = port
        return after or first

    def arbitrate(self) -> int:
        """Grant at most one head-of-queue request per bank this cycle.

        Returns the number of grants performed.
        """
        if not self.pending_requests:
            return 0
        heads: Dict[int, MemoryPort] = {}
        contended: Dict[int, List[MemoryPort]] = {}
        for port in self._requesters.values():
            if port.pending:
                bank = port.pending[0][0]
                first = heads.setdefault(bank, port)
                if first is not port:
                    contended.setdefault(bank, [first]).append(port)
        for bank, contenders in contended.items():
            self.total_conflicts += len(contenders) - 1
            for port in contenders:
                port.retries += 1
            heads[bank] = self._pick_winner(bank, contenders)

        scratchpad = self.scratchpad
        banks = scratchpad.banks
        buffer = scratchpad.buffer
        width = self.geometry.bank_width_bytes
        depth = self.geometry.bank_depth
        last_grant = self._last_grant
        ready = self.cycle + self.read_latency
        batch = []
        reads = 0
        for bank, port in heads.items():
            last_grant[bank] = port.name
            _, line, data, request = port.pending.popleft()
            port.granted += 1
            store = banks[bank]
            if data is None:
                # A read: the bank's bounds check and count, the word a
                # slice of the buffer (most grants are reads).
                if not 0 <= line < depth:
                    store._check_line(line)
                store.read_count += 1
                start = (bank * depth + line) * width
                data = buffer[start : start + width]
                reads += 1
            elif request is None:
                # A stream's write: a uint8 word its streamer sized at push.
                if not 0 <= line < depth:
                    store._check_line(line)
                store.write_count += 1
                store._data[line] = data
                data = None
            else:
                store.write(line, data, request.strobe)
                data = None
            if request is not None:
                request.data = data
                request.ready_cycle = ready
            batch.append((port, data, request))
        self._in_flight.append((ready, batch))
        self.pending_requests -= len(heads)
        self.total_reads += reads
        self.total_writes += len(heads) - reads
        return len(heads)

    def step(self) -> int:
        """Arbitrate this cycle's requests and advance the clock.

        Returns the number of grants performed this cycle.
        """
        granted = self.arbitrate()
        self.cycle += 1
        return granted

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self) -> Optional[int]:
        """Earliest cycle at which this subsystem can change state.

        * ``self.cycle`` when any request awaits arbitration or a matured
          response awaits collection — the memory can act *now*;
        * the earliest ``ready_cycle`` when only in-flight responses remain —
          the memory's only pending event is that delivery;
        * ``None`` when fully idle: without new requests, nothing will ever
          happen here again.
        """
        if self.pending_requests:
            return self.cycle
        for port in self._requesters.values():
            if port.responses:
                return self.cycle
        return self._in_flight[0][0] if self._in_flight else None

    def advance(self, cycles: int) -> None:
        """Fast-forward the clock over ``cycles`` provably inactive cycles.

        The caller (the event scheduler) guarantees that no request is
        pending and no in-flight response matures inside the span, so the
        per-cycle :meth:`arbitrate` calls being skipped would all have been
        no-ops.
        """
        if cycles < 0:
            raise ValueError("cannot advance by a negative number of cycles")
        self.cycle += cycles

    # ------------------------------------------------------------------
    # Steady-span protocol (see repro.engine.steady).
    # ------------------------------------------------------------------
    def period_counters(self) -> List[Tuple[object, str]]:
        """The clock and the totals: what a steady period advances.  The DMA
        pair moves only before the kernel."""
        return [
            (self, name)
            for name in ("cycle", "total_conflicts", "total_reads", "total_writes")
        ]

    def period_signature(self) -> list:
        """Each in-flight batch's ready cycle, relative to now, and its ports."""
        now = self.cycle
        return [
            (ready - now, [port for port, _, _ in batch])
            for ready, batch in self._in_flight
        ]

    def grant_pointers(self) -> Dict[int, str]:
        """A copy of the rotating arbiter's pointers: bank -> last winner."""
        return dict(self._last_grant)

    def period_flights(self, ports) -> Dict[MemoryPort, List[int]]:
        """The ready cycles of each of ``ports``' in-flight words, oldest
        first; bails when any other requester still has traffic."""
        flights: Dict[MemoryPort, List[int]] = {}
        for ready, batch in self._in_flight:
            for port, _, _ in batch:
                flights.setdefault(port, []).append(ready)
        for port in self._requesters.values():
            busy = port.pending or port.responses or port in flights
            if busy and port not in ports:
                raise SteadyBail("foreign_requester")
        return flights

    def in_flight_words(self) -> Dict[MemoryPort, list]:
        """Every port's granted, undelivered words, oldest first; a port
        with none reads as an empty list."""
        words: Dict[MemoryPort, list] = defaultdict(list)
        for _, batch in self._in_flight:
            for port, data, _ in batch:
                words[port].append(data)
        return words

    def replay_grants(self, banks: np.ndarray, is_read: bool, ports=None) -> None:
        """Count a steady span's grants on the banks: row ``i`` of ``banks``
        holds every channel's ``i``-th grant.  With ``ports`` — a skew-free
        stream's, whose rows are granted whole and in order — each bank's
        arbiter also points at the port of its last grant there."""
        flat = banks.ravel()
        counts = np.bincount(flat)
        touched = counts.nonzero()[0]
        stores = self.scratchpad.banks
        banks_touched = touched.tolist()
        accessed = zip(banks_touched, counts[touched].tolist())
        if is_read:
            for bank, accesses in accessed:
                stores[bank].read_count += accesses
        else:
            for bank, accesses in accessed:
                stores[bank].write_count += accesses
        if ports:
            # A bank's last grant is its last place in the flattened rows,
            # so only the span's last rows are scanned: one per bank it
            # touched, four times as many until they touch them all.
            tail = flat[-touched.size * len(ports) :]
            while tail.size < flat.size:
                if np.bincount(tail).nonzero()[0].size == touched.size:
                    break
                tail = flat[-tail.size * 4 :]
            last = np.zeros(counts.size, np.intp)
            np.maximum.at(last, tail, np.arange(tail.size))
            names = [port.name for port in ports]
            columns = (last[touched] % len(ports)).tolist()
            self._last_grant.update(
                zip(banks_touched, [names[column] for column in columns])
            )

    def replay_in_flight(self, cycles: int, words: Dict[MemoryPort, Any]) -> None:
        """Move every in-flight batch ``cycles`` on, in order; each port's
        words are the next ones ``words[port]`` yields."""
        self._in_flight = deque(
            (ready + cycles, [(port, next(words[port]), None) for port, _, _ in batch])
            for ready, batch in self._in_flight
        )

    # ------------------------------------------------------------------
    # Statistics & housekeeping.
    # ------------------------------------------------------------------
    def requester_stats(self, requester: str) -> Dict[str, int]:
        port = self._requesters.get(requester)
        if port is None:
            return {"granted": 0, "retries": 0}
        return {"granted": port.granted, "retries": port.retries}

    def add_uncounted_accesses(self, reads: int = 0, writes: int = 0) -> None:
        """Account accesses performed by an abstracted agent (DMA pre-pass).

        The DMA model performs explicit data-manipulation pre-passes
        (software transpose, software im2col) functionally via the backdoor
        but still needs their word accesses reflected in the totals used by
        Figure 7(b); this hook adds them without occupying crossbar ports.
        """
        self.total_reads += reads
        self.dma_reads += reads
        self.total_writes += writes
        self.dma_writes += writes
