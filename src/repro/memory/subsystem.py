"""Memory subsystem: interleaved crossbar + banked scratchpad arbitration.

The paper's memory subsystem (§III-A, Fig. 2(a)) is an ``N_BF``-banked
scratchpad behind an interleaved crossbar that gives every requester port
access to every bank.  Each bank is single ported, so when two requests
target the same bank in the same cycle one of them has to wait — a *bank
conflict*, the central performance effect the DataMaestro features are
designed to avoid.

:class:`MemorySubsystem` models this at cycle granularity:

* requesters queue word requests that are served strictly in order per
  port;
* once per cycle :meth:`arbitrate` considers the head-of-queue request of
  every port, grants at most one request per bank (round-robin among
  contenders) and performs the SRAM access — a read takes a bytes-like copy
  of the wordline there, so the word is what the bank held at the grant;
* ``read_latency`` cycles after the grant :meth:`deliver` hands the word
  over.  A by-name requester calls :meth:`collect` for it.

Two kinds of requester share the crossbar, in the order of their first
request — the contender order of :meth:`arbitrate`, a stream's channels in
channel order:

* a **stream** — a DataMaestro's channels, which issue one *row* together
  (one word per channel, one address bundle).  Its ports queue and count
  nothing: the stream owns its channels' grant and delivery cursors (see
  :class:`~repro.core.streamer.DataMaestro`), and a channel's pending words
  are the rows of its decoded address window from the channel's grant
  cursor to the issue cursor ``requests_issued``.  A window row
  (``window[step - window_start]``) is ``(banks, mask, keys, gather)``: each
  channel's bank, their bitmask, each channel's word index ``bank * depth +
  line`` and the getter of the row's words (:meth:`MemorySubsystem.row_gathers`).
  The stream holds its words once per row in ``rows``.  A read stream
  counts its lowest grant cursor from them: a row its last channel's grant
  completes becomes one wide word, walking up from the lowest incomplete
  one, and its channels agree again when no granted row is incomplete;
* a **by-name** requester's port queues ``(bank, line, data, request)``
  tuples in ``pending`` (``data`` a write's word, ``request`` the caller's
  :class:`MemoryRequest`) and counts its own grants and deliveries.

When no by-name request waits, every pending stream is aligned and one
bitmask test finds no bank named twice among the head rows, each head row is
granted whole — one cursor bump, one gather and one in-flight entry
``(ready_cycle, stream.ports, stream)``, whose delivery is one bump too.
Otherwise the per-bank round robin runs over every port's head, a moving
stream's channels at their own cursors (a list it holds while they differ),
and the cycle's grants are one in-flight entry ``(ready_cycle, ports,
owners)``: the ports in grant order, then the by-name requests (stamped with
a read's word) and each stream that moved as ``(stream, lowest cursor,
channel cursors or None)``, the delivery cursors the entry hands over.  No
bank count is bumped per streamed word: the scratchpad counts a stream's
grants from its cursors (:meth:`~repro.memory.scratchpad.ScratchpadMemory.streamed`).

For the event-driven simulation kernel (:mod:`repro.engine`) the subsystem
additionally implements the next-event protocol: :meth:`next_event_cycle`
reports the earliest cycle at which the memory can change state (now, when
requests are pending or matured responses await collection; the earliest
``ready_cycle`` when only in-flight responses remain; never, when fully
idle), and :meth:`advance` fast-forwards the clock over a span the scheduler
has proven inactive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat, starmap
from operator import attrgetter, itemgetter
from struct import Struct
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..sim.result import SteadyBail
from .addressing import BankGeometry
from .scratchpad import ScratchpadMemory


def bank_masks(banks: np.ndarray, num_banks: int) -> np.ndarray:
    """Each row of ``banks`` as a bitmask of the banks it names, sorting
    nothing: ``(rows, words)`` uint64, bank ``b`` bit ``b % 64`` of word
    ``b // 64``.  Computed channel-major, so that each OR runs along a
    whole column."""
    if num_banks <= 64:
        bits = np.left_shift(1, banks.T, dtype=np.uint64, casting="unsafe", order="C")
        return np.bitwise_or.reduce(bits, axis=0)[:, np.newaxis]
    columns = banks.T.astype(np.uint64, order="C")
    bits = np.left_shift(np.uint64(1), columns & np.uint64(63))
    words = columns >> np.uint64(6)
    return np.stack(
        [
            np.bitwise_or.reduce(np.where(words == word, bits, np.uint64(0)), axis=0)
            for word in range(-(-num_banks // 64))
        ],
        axis=1,
    )


@dataclass(slots=True)
class MemoryRequest:
    """A by-name requester's word, from :meth:`MemorySubsystem.submit` to
    :meth:`MemorySubsystem.collect` (a stream's words are rows).

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
    """One requester's side of the crossbar: its queue and counters.

    Per-cycle requesters hold their port (:meth:`MemorySubsystem.bind`), so
    no cycle resolves a name.  A port joins arbitration at its first request
    (:meth:`MemorySubsystem.register`, or
    :meth:`~MemorySubsystem.register_stream` for a stream's channels),
    never at ``bind``: registration order is contender order.
    """

    name: str
    #: A by-name requester's ``(bank, line, data, request)`` words (see the
    #: module docstring); a stream channel's pending words are rows.
    pending: Deque[tuple] = field(default_factory=deque)
    #: A by-name requester's matured responses awaiting :meth:`collect`
    #: (``deliver`` only moves matured ones, so everything here is ready).
    responses: List[MemoryResponse] = field(default_factory=list)
    retries: int = 0
    registered: bool = False
    #: The channel's other half when a streamer binds this port: its data
    #: FIFO (``DataMaestro.fifos[i]`` beside ``DataMaestro.ports[i]``),
    #: never the streamer.  ``None`` for by-name requesters.
    sink: Optional[Any] = None
    _granted: int = 0
    _delivered: int = 0

    @property
    def granted(self) -> int:
        """Grants so far (a stream channel's grant cursor, its stream's)."""
        return self._granted if self.sink is None else self.sink.cursor(0)

    @property
    def delivered(self) -> int:
        """Reads and write acknowledgements handed over so far (a stream
        channel's delivery cursor, its stream's)."""
        return self._delivered if self.sink is None else self.sink.cursor(1)


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
        #: Every registered port by name, in registration order.
        self._requesters: Dict[str, MemoryPort] = {}
        #: Streams and by-name ports in first-request order.  The order is
        #: behaviour: it is the contender order of :meth:`arbitrate`, the
        #: first-contention tie-break and the grant order into
        #: ``_in_flight``.
        self._sources: list = []
        #: The streams among them, in the same order.
        self._streams: list = []
        #: One entry per granted row or word, in ``ready_cycle`` and grant
        #: order.
        self._in_flight: Deque[tuple] = deque()
        self._last_grant: Dict[int, str] = {}
        #: Requests queued and not yet granted, over all ports; a stream
        #: adds its channels' number at each issue.
        self.pending_requests = 0
        #: The by-name requests among them.
        self._named_pending = 0
        #: The scratchpad as unsigned ints of the widest size that divides
        #: a word, ``units`` of them a word: a row's words are gathered as
        #: ints and packed back into one ``bytes``, a copy taken at the
        #: grant.
        width = geometry.bank_width_bytes
        unit = next(size for size in (8, 4, 2, 1) if width % size == 0)
        self._unit_format = {8: "Q", 4: "I", 2: "H", 1: "B"}[unit]
        self._units = width // unit
        self._cells = memoryview(self.scratchpad.buffer).cast(self._unit_format)
        self.scratchpad.streams = self._streams  # their grants count there

    # ------------------------------------------------------------------
    # Requester-facing API.
    # ------------------------------------------------------------------
    def bind(self, requester: str) -> MemoryPort:
        """Return ``requester``'s port; a new one stays unregistered."""
        return self._requesters.get(requester) or MemoryPort(requester)

    def _enter(self, port: MemoryPort) -> None:
        if self._requesters.setdefault(port.name, port) is not port:
            raise ValueError(f"two ports bound as requester {port.name!r}")
        port.registered = True

    def register(self, port: MemoryPort) -> None:
        """Enter a by-name requester's ``port`` into arbitration, behind
        every requester already there."""
        self._enter(port)
        self._sources.append(port)

    def register_stream(self, stream) -> None:
        """Enter a stream's channels into arbitration at its first issue,
        behind every requester already there; a stream enters once."""
        for port in stream.ports:
            if not port.registered:
                self._enter(port)
        if stream not in self._streams:
            self._sources.append(stream)
            self._streams.append(stream)

    def row_gathers(self, keys: List[list]) -> list:
        """One gather per row of word ``keys`` (``bank * depth + line``, a
        list per row): the getter of the row's ints in the scratchpad, for
        :meth:`row_packer`'s pack."""
        units = self._units
        if units > 1:
            keys = [
                [key * units + unit for key in row for unit in range(units)]
                for row in keys
            ]
        if keys and len(keys[0]) == 1:
            return [itemgetter(slice(key, key + 1)) for (key,) in keys]
        return list(starmap(itemgetter, keys))

    def row_packer(self, channels: int):
        """The pack of a row of ``channels`` words gathered by
        :meth:`row_gathers` into one ``bytes``."""
        return Struct(f"={channels * self._units}{self._unit_format}").pack

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
        if port.sink is not None:
            raise ValueError(
                f"{port.name!r} is a stream's channel: its words are the stream's rows"
            )
        if not port.registered:
            self.register(port)
        port.pending.append((request.bank, request.line, data, request))
        self.pending_requests += 1
        self._named_pending += 1

    def pending_count(self, requester: str) -> int:
        """Number of not-yet-granted requests queued by ``requester``."""
        port = self._requesters.get(requester)
        if port is None:
            return 0
        for stream in self._streams:
            if port in stream.ports:
                return stream.requests_issued - port.granted
        return len(port.pending)

    def outstanding_count(self, requester: str) -> int:
        """Pending plus granted-but-not-yet-delivered requests."""
        port = self._requesters.get(requester)
        if port is None:
            return 0
        in_flight = sum(port in ports for _, ports, _ in self._in_flight)
        return self.pending_count(requester) + in_flight + len(port.responses)

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
            _, ports, owners = in_flight.popleft()
            delivered += len(ports)
            if owners.__class__ is not list:
                # A row granted whole arrives whole: every channel was at the
                # lowest delivery cursor, above the lowest high-water mark or not.
                owners.rows_delivered = arrived = owners.rows_delivered + 1
                if owners.is_read and arrived - owners.words_streamed > owners.fill_mark:
                    owners.fill(arrived - owners.words_streamed, owners.fifos)
                continue
            for owner in owners:
                if owner.__class__ is MemoryRequest:
                    owner.port._delivered += 1
                    owner.port.responses.append(owner)
                    continue
                # A stream that moved: delivered up to the cycle's grants; a
                # read channel above its mark raises it (none at credit depth).
                stream, low, cursors = owner
                stream.rows_delivered = low
                stream.channel_deliveries = cursors
                if stream.is_read and stream.fill_mark < stream.design.data_buffer_depth:
                    words = stream.words_streamed
                    for fifo, cursor in zip(stream.fifos, cursors or repeat(low)):
                        if cursor - words > fifo.max_occupancy:
                            stream.fill(cursor - words, (fifo,))
        return delivered

    def _pick_winner(self, bank: int, contenders: List[tuple]) -> tuple:
        """Round-robin selection among two or more contending heads (a
        port first) for one bank."""
        last = self._last_grant.get(bank)
        if last is None:
            return contenders[0]
        # Grant the first requester strictly "after" the previous winner in
        # name order, wrapping around — a simple rotating-priority arbiter.
        first = after = None
        for head in contenders:
            name = head[0].name
            if first is None or name < first[0].name:
                first = head
            if name > last and (after is None or name < after[0].name):
                after = head
        return after or first

    def arbitrate(self) -> int:
        """Grant at most one head-of-queue request per bank this cycle.

        Returns the number of grants performed.
        """
        if not self.pending_requests:
            return 0
        if not self._named_pending:
            heads = []
            seen = named = 0
            for stream in self._streams:
                step = stream.rows_granted
                if step != stream.requests_issued:
                    if stream.channel_grants is not None:
                        break
                    row = stream.window[step - stream.window_start]
                    seen |= row[1]
                    named += len(row[0])
                    heads.append((stream, row))
            else:
                if seen.bit_count() == named:
                    return self._grant_rows(heads)
        return self._grant_words()

    def _grant_rows(self, heads: list) -> int:
        """Grant each ``(stream, window row)`` head row whole: one cursor
        bump, its words and its in-flight entry."""
        buffer = self.scratchpad.buffer
        last_grant = self._last_grant
        entry = (self.cycle + self.read_latency,)
        append = self._in_flight.append
        granted = reads = 0
        cells = self._cells
        width = self.geometry.bank_width_bytes
        for stream, (banks, _, keys, gather) in heads:
            stream.rows_granted += 1
            last_grant.update(zip(banks, stream.port_names))
            if stream.is_read:
                stream.rows.append(stream.pack(*gather(cells)))
                reads += len(banks)
            else:
                word = stream.rows.popleft()
                for key, part in zip(keys, stream.parts):
                    buffer[key * width : key * width + width] = word[part]
            granted += len(banks)
            append(entry + (stream.ports, stream))
        self.pending_requests -= granted
        self.total_reads += reads
        self.total_writes += granted - reads
        return granted

    def _grant_words(self) -> int:
        """Per-bank round robin over every port's head word, ``(port, owner,
        column, key)``: a stream channel's at its cursor in the stream's list
        for the cycle (``owner`` the stream), or a by-name request (``owner``
        the request, ``key`` ``None``); one in-flight entry for them all."""
        heads: Dict[int, tuple] = {}
        contended: Dict[int, List[tuple]] = {}
        moving = []  # the streams with a row pending
        for source in self._sources:
            if source.__class__ is MemoryPort:
                if source.pending:
                    bank, _, _, request = source.pending[0]
                    head = (source, request, 0, None)
                    first = heads.setdefault(bank, head)
                    if first is not head:
                        contended.setdefault(bank, [first]).append(head)
                continue
            low = source.rows_granted
            issued = source.requests_issued
            if low == issued:
                continue
            moving.append(source)
            ports = source.ports
            cursors = source.channel_grants
            if cursors is None:
                # Every channel's head is in the stream's head row.
                source.channel_grants = [low] * len(ports)
                banks, _, keys, _ = source.window[low - source.window_start]
                for column, port in enumerate(ports):
                    head = (port, source, column, keys[column])
                    first = heads.setdefault(banks[column], head)
                    if first is not head:
                        contended.setdefault(banks[column], [first]).append(head)
                continue
            window, start = source.window, source.window_start
            for column, step in enumerate(cursors):
                if step < issued:
                    banks, _, keys, _ = window[step - start]
                    head = (ports[column], source, column, keys[column])
                    first = heads.setdefault(banks[column], head)
                    if first is not head:
                        contended.setdefault(banks[column], [first]).append(head)
        for bank, contenders in contended.items():
            self.total_conflicts += len(contenders) - 1
            for head in contenders:
                head[0].retries += 1
            heads[bank] = self._pick_winner(bank, contenders)

        ports = list(map(_first, heads.values()))  # in grant order
        self._last_grant.update(zip(heads, map(_name, ports)))
        buffer = self.scratchpad.buffer
        width = self.geometry.bank_width_bytes
        ready = self.cycle + self.read_latency
        owners = []  # the by-name requests granted, then the streams that moved
        writes = 0
        named = self._named_pending
        for bank, (port, request, _, key) in list(heads.items()) if named else ():
            if key is not None:
                continue
            del heads[bank]  # a by-name request, granted here
            port._granted += 1
            _, line, data, _ = port.pending.popleft()
            self._named_pending -= 1
            store = self.scratchpad.banks[bank]
            if data is None:
                store.reads += 1
                start = (bank * self.geometry.bank_depth + line) * width
                request.data = buffer[start : start + width]
            else:
                store.write(line, data, request.strobe)
                request.data = None
                writes += 1
            request.ready_cycle = ready
            owners.append(request)
        for _, stream, column, key in heads.values():
            cursors = stream.channel_grants
            step = cursors[column]
            cursors[column] = step + 1
            rows = stream.rows
            if stream.is_read:
                index = step - stream.words_streamed
                if index == len(rows):
                    rows.append([None] * len(cursors))
                rows[index][column] = buffer[key * width : key * width + width]
            else:
                writes += 1
                word = rows[step - stream.words_streamed + len(rows)]
                buffer[key * width : key * width + width] = word[stream.parts[column]]
        for stream in moving:
            rows = stream.rows
            words = stream.words_streamed
            cursors = stream.channel_grants
            if stream.is_read:
                # Each row its last channel's grant completed, from the
                # lowest up, becomes one wide word.
                index = stream.rows_granted - words
                while index < len(rows) and None not in rows[index]:
                    rows[index] = b"".join(rows[index])
                    index += 1
                low = stream.rows_granted = words + index
                aligned = index == len(rows)
            else:
                low = stream.rows_granted = min(cursors)
                aligned = low == max(cursors)
                # A write row leaves once every channel has stored its word.
                while len(rows) > words - low:
                    rows.popleft()
            if aligned:
                stream.channel_grants = None
            owners.append((stream, low, None if aligned else tuple(cursors)))
        self._in_flight.append((ready, ports, owners))
        self.pending_requests -= len(ports)
        self.total_reads += len(ports) - writes
        self.total_writes += writes
        return len(ports)

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
        """Each granting cycle's in-flight words: their ready cycle, relative
        to now, and their ports in grant order."""
        now = self.cycle
        signature: list = []
        for ready, ports, _ in self._in_flight:
            if signature and signature[-1][0] == ready - now:
                signature[-1][1].extend(ports)
            else:
                signature.append((ready - now, list(ports)))
        return signature

    def grant_pointers(self) -> Dict[int, str]:
        """A copy of the rotating arbiter's pointers: bank -> last winner."""
        return dict(self._last_grant)

    def period_flights(self, ports) -> Dict[MemoryPort, List[int]]:
        """The ready cycles of each of ``ports``' in-flight words, oldest
        first; bails when any other requester still has traffic."""
        flights: Dict[MemoryPort, List[int]] = {}
        for ready, granted, _ in self._in_flight:
            for port in granted:
                flights.setdefault(port, []).append(ready)
        for port in self._requesters.values():
            busy = port.pending or port.responses or port in flights
            if busy and port not in ports:
                raise SteadyBail("foreign_requester")
        for stream in self._streams:
            if stream.rows_granted != stream.requests_issued:
                if not ports.issuperset(stream.ports):
                    raise SteadyBail("foreign_requester")
        return flights

    def replay_pointers(self, banks: np.ndarray, ports) -> None:
        """Point each bank a steady span granted on at the port of its last
        grant there: row ``i`` of ``banks`` holds every channel's ``i``-th
        grant of ``ports``' skew-free stream, whose rows are granted whole
        and in order."""
        flat = banks.ravel()
        touched = np.bincount(flat).nonzero()[0]
        # A bank's last grant is its last place in the flattened rows, so
        # only the span's last rows are scanned: one per bank it touched,
        # four times as many until they touch them all.
        tail = flat[-touched.size * len(ports) :]
        while tail.size < flat.size:
            if np.bincount(tail).nonzero()[0].size == touched.size:
                break
            tail = flat[-tail.size * 4 :]
        last = np.zeros(touched[-1] + 1, np.intp)
        np.maximum.at(last, tail, np.arange(tail.size))
        names = [port.name for port in ports]
        columns = (last[touched] % len(ports)).tolist()
        self._last_grant.update(
            zip(touched.tolist(), [names[column] for column in columns])
        )

    def replay_in_flight(self, cycles: int, rows: Dict[Any, int]) -> None:
        """Move every in-flight entry ``cycles`` on, and a stream's cursors in
        it ``rows[stream]``: a steady span leaves the same in flight, relative."""
        in_flight = self._in_flight
        for _ in range(len(in_flight)):
            ready, ports, owners = in_flight.popleft()
            if owners.__class__ is list:
                moved, owners = owners, []
                for stream, low, cursors in moved:
                    step = rows[stream]
                    cursors = cursors and tuple(map(step.__add__, cursors))
                    owners.append((stream, low + step, cursors))
            in_flight.append((ready + cycles, ports, owners))

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


_name = attrgetter("name")
_first = itemgetter(0)
