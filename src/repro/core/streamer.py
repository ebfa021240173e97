"""DataMaestro streaming engine top level (paper §III-A, Fig. 2(a)).

A :class:`DataMaestro` bridges the multi-banked scratchpad and one accelerator
port.  It splits one wide accelerator word into ``N_C`` narrow channels,
each the width of one bank word (paper §III-C, Fig. 2(b)), and a channel is
two things: a **data FIFO** on the accelerator side (``fifos``, depth
``D_DBf``) and a crossbar **port** on the memory side (``ports``, a
:class:`~repro.memory.subsystem.MemoryPort`, the channel's Memory Interface
Controller).  In **read mode** the streamer prefetches data from memory into
the data FIFOs, assembles the channel words into one wide word, pushes that
word through the (optional) datapath-extension cascade and presents it to
the accelerator with valid/ready semantics.  In **write mode** it accepts
wide words from the accelerator, splits them across the data FIFOs and
drains them to memory.

The per-cycle methods are called by the surrounding system model in a fixed
phase order (see :class:`repro.system.system.AcceleratorSystem`), after the
memory has delivered the cycle's matured reads into the data FIFOs:

1. the accelerator consumes/produces wide words via
   :meth:`output_valid`/:meth:`pop_output` and
   :meth:`input_ready`/:meth:`push_input`;
2. :meth:`generate_addresses` — the AGU produces at most one address bundle
   per cycle (gated by the prefetch mode);
3. :meth:`issue_requests` — the streamer's MICs issue at most one word,
   one memory request per active channel, subject to the Outstanding
   Request Manager's credits.

A streamer's channels issue together: the address is the streamer's next
bundle and the credit limit is streamer-wide, so the issue cursor
``requests_issued`` is stored once, here, and so are the credit stalls and
the address-FIFO high-water mark.  The channels diverge only from the grant
on: a bank conflict delays one port's grant while the others are served,
and its data FIFO absorbs the jitter — each port's ``pending`` /
``granted`` / ``retries`` and each read channel's data-FIFO occupancy.
Three identities carry the word path; what they determine is computed,
never stored or moved:

* every channel's **address FIFO** holds ``bundles_generated -
  requests_issued`` entries, and they are rows of the decoded address
  window (a pure function of the step index): generating a bundle advances
  a counter, issuing appends each channel's ``(bank, line, data, None)``
  word tuple from the row to its port;
* a read channel's **in-flight plus buffered** words are
  ``requests_issued - words_streamed`` (a streamer's channels pop
  together), so the credit rule, ``busy`` and the no-prefetch gate never
  look at a delivery;
* a channel's **in-flight** requests are ``requests_issued -
  port.delivered``: the memory fills the data FIFO itself and counts.

A streamer whose cycle moved nothing repeats that cycle until the accelerator
pops or pushes a word (a delivery changes nothing it decides on).  The system
**parks** it meanwhile (``parked`` / ``parked_cycles``): no phase is entered,
and :meth:`wake` charges the cycles it sat out through :meth:`advance` before
the waking event changes a counter (``docs/ENGINE.md``).

Disabling ``fine_grained_prefetch`` reproduces the ablation baseline: the AGU
only produces the next bundle once the previous word has been fully consumed
and every channel is idle, so memory latency and bank conflicts hit the
accelerator directly instead of being hidden by the FIFOs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..memory.addressing import BankGeometry
from ..memory.subsystem import MemoryPort, MemorySubsystem
from ..sim.fifo import Fifo, FifoError
from ..sim.result import SteadyBail
from ..sim.stats import StreamerStats
from .agu import AddressGenerationUnit
from .extensions import ExtensionPipeline
from .params import StreamerDesign, StreamerMode, StreamerRuntimeConfig
from .remapper import AddressRemapper


#: Bundles decoded per vectorised address-window refill: large enough to
#: amortise the numpy evaluation, small enough that the lookahead stays a
#: few hundred KB per streamer whatever the stream length.
ADDRESS_WINDOW = 128

#: The fields of a :meth:`DataMaestro.channel_statistics` row.
CHANNEL_FIELDS = (
    "requests_issued",
    "responses_received",
    "credit_stall_cycles",
    "max_data_occupancy",
    "max_addr_occupancy",
)


@dataclass
class StreamSpan:
    """A streamer's decoded bundle rows around a steady boundary: rows
    ``lo ..`` of its address stream, from one period before its slowest
    channel's grant cursor (see :meth:`DataMaestro.plan_span`)."""

    streamer: "DataMaestro"
    delta: int  # bundles per period
    generated: int  # bundles generated at the boundary
    lo: int
    banks: np.ndarray  # (rows, channels)
    lines: np.ndarray
    starts: List[int]  # each channel's grant cursor, as a row
    isolated: bool  # verified by isolation rather than exact tiling
    #: Most periods the stream can move through: its issue cursor stops
    #: one address short of its last, so an address stays queued.
    periods_left: int
    #: The span's :meth:`rows` as ``(banks, keys)``, a key the word's index
    #: ``bank * depth + line`` in the scratchpad; gathered once by the
    #: planner for the replay.
    grants: Optional[tuple] = None

    def rows(self, count: int):
        """Every channel's next ``count`` grants as ``(banks, lines)``,
        shaped ``(count, channels)``: row slices when every channel's grant
        cursor agrees, a gather otherwise."""
        starts = self.starts
        if starts.count(starts[0]) == len(starts):
            rows = slice(starts[0], starts[0] + count)
            return self.banks[rows], self.lines[rows]
        rows = starts + np.arange(count)[:, np.newaxis]
        columns = np.arange(len(starts))
        return self.banks[rows, columns], self.lines[rows, columns]

    def runs_out(self, periods: int) -> bool:
        """Whether ``periods`` take the AGU past its stream's end, where it
        stops: the address-FIFO occupancy then falls short of the
        boundary's."""
        return self.generated + periods * self.delta > self.streamer.total_bundles


class DataMaestro:
    """One read-mode or write-mode DataMaestro streaming engine."""

    def __init__(
        self,
        design: StreamerDesign,
        geometry: BankGeometry,
        group_size_options: Sequence[int] = (),
    ) -> None:
        self.design = design
        self.name = design.name
        self.is_read = design.mode is StreamerMode.READ
        self.is_write = design.mode is StreamerMode.WRITE
        self.remapper = AddressRemapper(
            geometry, list(group_size_options) or [geometry.num_banks]
        )
        self.extensions = ExtensionPipeline.from_specs(design.extensions)
        self.agu: Optional[AddressGenerationUnit] = None
        self.runtime: Optional[StreamerRuntimeConfig] = None
        self.prefetch_enabled = True
        self.active_channels = design.num_channels
        #: The data FIFOs of the channels the programmed kernel uses —
        #: channels ``0 .. active_channels - 1``, built fresh by
        #: :meth:`configure`.  The design's other channels hold no state:
        #: they never issue, and :meth:`channel_statistics` reports them as
        #: fresh channels.
        self.fifos: List[Fifo] = []
        #: The same channels' crossbar ports, named ``<streamer>.ch<i>``,
        #: resolved by :meth:`bind`.
        self.ports: List[MemoryPort] = []
        self.words_streamed = 0
        #: Bundles generated so far: the stream position, the AGU's only
        #: state (its addresses are a function of the step).
        self.bundles_generated = 0
        #: Bundles in the programmed stream (``0`` until :meth:`configure`).
        self.total_bundles = 0
        #: Words issued so far — also the step of the next address to issue.
        self.requests_issued = 0
        self.credit_stall_cycles = 0
        #: Sampled before each issue and by :meth:`channel_statistics` (the
        #: address FIFO only grows between).
        self.max_addr_occupancy = 0
        self._popped_this_cycle = False
        #: State changes this streamer made since :meth:`begin_cycle` (words
        #: popped or pushed, a bundle generated, requests issued); zero after
        #: the issue phase makes it parkable.
        self.cycle_activity = 0
        #: Set by the system after a zero-activity cycle, cleared by
        #: :meth:`wake`; ``parked_cycles`` counts the cycles sat out since.
        self.parked = False
        self.parked_cycles = 0
        #: The memory ``ports`` belong to (:meth:`bind`).
        self._memory: Optional[MemorySubsystem] = None
        #: Decoded bundles for steps ``[_window_start, +len(_window))`` as
        #: ``(banks, lines)`` list rows: the address FIFOs' contents.  A pure
        #: function of the step index, so a macro jump simply lands outside
        #: (or inside) it and the next issue re-decodes on demand.
        self._window: list = []
        self._window_start = 0

    # ------------------------------------------------------------------
    # Configuration (performed by the host through CSR writes).
    # ------------------------------------------------------------------
    def configure(
        self,
        runtime: StreamerRuntimeConfig,
        prefetch_enabled: bool = True,
    ) -> None:
        """Program the streamer for one kernel launch."""
        design = self.design
        runtime.validate_against(design)
        self.runtime = runtime
        self.prefetch_enabled = bool(prefetch_enabled)
        self.active_channels = runtime.active_channels or design.num_channels
        self.remapper.select_group_size(runtime.bank_group_size)
        self.agu = AddressGenerationUnit(
            temporal_bounds=runtime.temporal_bounds,
            temporal_strides=runtime.temporal_strides,
            spatial_bounds=design.spatial_bounds,
            spatial_strides=runtime.spatial_strides,
            base_address=runtime.base_address,
        )
        self.total_bundles = self.agu.total_bundles
        self._check_address_range()
        self._window = []
        self.extensions.set_enables(
            runtime.extension_enables or [True] * len(self.extensions)
        )
        for kind, params in runtime.extension_params_dict().items():
            if self.extensions.stage(kind) is not None:
                self.extensions.configure_stage(kind, **dict(params))
        self.fifos = [
            Fifo(design.data_buffer_depth, name=f"{self.name}.ch{index}.data")
            for index in range(self.active_channels)
        ]
        self.ports = []
        self._memory = None
        self.words_streamed = 0
        self.bundles_generated = 0
        self.requests_issued = 0
        self.credit_stall_cycles = 0
        self.max_addr_occupancy = 0
        self._popped_this_cycle = False
        self.cycle_activity = 0
        self.parked = False
        self.parked_cycles = 0

    def bind(self, memory: MemorySubsystem) -> None:
        """Resolve every active channel's port in ``memory``, once per
        kernel: from here on the memory delivers into the channels' data
        FIFOs (all a port holds of the streamer) and counts the deliveries
        from zero.  The system binds at load; a hand-driven streamer binds at
        its first :meth:`issue_requests`."""
        self._memory = memory
        self.ports = []
        for index, fifo in enumerate(self.fifos):
            port = memory.bind(f"{self.name}.ch{index}")
            port.sink = fifo
            port.delivered = 0
            self.ports.append(port)

    def _check_address_range(self) -> None:
        """Reject a stream that would leave the scratchpad, before cycle 0."""
        capacity = self.remapper.geometry.capacity_bytes
        for address in self.agu.extremes(self.active_channels):
            if not 0 <= address < capacity:
                raise ValueError(
                    f"{self.name}: programmed stream reaches address "
                    f"{address:#x}, outside the scratchpad capacity {capacity:#x}"
                )

    # ------------------------------------------------------------------
    # Status.
    # ------------------------------------------------------------------
    @property
    def configured(self) -> bool:
        return self.agu is not None

    @property
    def busy(self) -> bool:
        """True while addresses remain or any channel still holds work."""
        generated = self.bundles_generated
        if generated != self.total_bundles or generated != self.words_streamed:
            return True
        # Every word addressed has been streamed, so a read streamer has
        # received them all; a write streamer may still hold one it has not
        # issued or await a channel's acknowledgement.
        issued = self.requests_issued
        return self.is_write and (
            issued != generated
            or any(port.delivered != issued for port in self.ports)
        )

    @property
    def done(self) -> bool:
        return self.configured and not self.busy

    # ------------------------------------------------------------------
    # Phase 0: per-cycle housekeeping.
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset per-cycle state; called once at the start of every cycle."""
        self._popped_this_cycle = False
        self.cycle_activity = 0

    # ------------------------------------------------------------------
    # Phase 1: accelerator-facing wide-word interface.
    # ------------------------------------------------------------------
    def output_valid(self) -> bool:
        """Read mode: True when every active channel has a word ready."""
        if not self.is_read or self.agu is None:
            return False
        for fifo in self.fifos:
            if not fifo.entries:
                return False
        return True

    def pop_output(self) -> np.ndarray:
        """Consume one wide word (read mode).

        The channels' words — bytes-like copies taken at their grants — are
        joined into one flat uint8 array that is read-only unless an
        extension rebuilt it.  Valid only after :meth:`output_valid` returned
        True this cycle; an empty channel raises
        :class:`~repro.sim.fifo.FifoError`.
        """
        if not self.is_read:
            raise RuntimeError(f"{self.name}: pop_output() on a write-mode streamer")
        if self.parked:
            self.wake()
        parts = []
        try:
            for fifo in self.fifos:
                parts.append(fifo.entries.popleft())
                fifo.total_pops += 1
        except IndexError:
            raise FifoError(f"pop from empty FIFO '{fifo.name}'") from None
        self.words_streamed += 1
        self._popped_this_cycle = True
        self.cycle_activity += 1
        return self.extensions.apply(np.frombuffer(b"".join(parts), np.uint8))

    def input_ready(self) -> bool:
        """Write mode: True when every active channel can accept a word."""
        if not self.is_write or self.agu is None:
            return False
        for fifo in self.fifos:
            if fifo.is_full:
                return False
        return True

    def push_input(self, word: np.ndarray) -> None:
        """Accept one wide word from the accelerator (write mode)."""
        if not self.input_ready():
            raise RuntimeError(f"{self.name}: push_input() while input not ready")
        payload = np.asarray(word, dtype=np.uint8).ravel()
        payload = self.extensions.apply(payload)
        width = self.design.bank_width_bytes
        expected = self.active_channels * width
        if payload.size != expected:
            raise ValueError(
                f"{self.name}: wide word must be {expected} bytes, got {payload.size}"
            )
        if self.parked:
            self.wake()
        for index, fifo in enumerate(self.fifos):
            fifo.push(payload[index * width : (index + 1) * width])
        self.words_streamed += 1
        self.cycle_activity += 1

    # ------------------------------------------------------------------
    # Phase 2: address generation.
    # ------------------------------------------------------------------
    def _prefetch_gate_open(self) -> bool:
        """Whether the AGU may produce the next bundle this cycle."""
        # Full address FIFOs: the bundles not yet issued fill their depth.
        if (
            self.bundles_generated - self.requests_issued
            >= self.design.address_buffer_depth
        ):
            return False
        if self.prefetch_enabled or self.is_write:
            return True
        # Prefetch disabled (ablation baseline): behave like a plain data
        # mover — the next word is only requested *after* the previous one
        # has been consumed (no lookahead within the consumption cycle) and
        # every channel is completely idle, so the accelerator pays the full
        # memory round trip for every word.
        return (
            not self._popped_this_cycle
            and self.bundles_generated == self.words_streamed
        )

    def generate_addresses(self) -> bool:
        """Produce at most one address bundle; return True if one was made.

        Nothing is materialised: the bundle is a row of the address window,
        decoded when the first channel issues it.
        """
        if (
            self.bundles_generated == self.total_bundles
            or not self._prefetch_gate_open()
        ):
            return False
        self.bundles_generated += 1
        self.cycle_activity += 1
        return True

    # ------------------------------------------------------------------
    # Phase 3: request issue.
    # ------------------------------------------------------------------
    def _decode(self, step: int, count: int):
        """``(banks, lines)`` of bundle steps ``[step, step + count)``, one
        row per step — the address window's and a steady span's rows."""
        matrix = self.agu.address_matrix(step, count, self.active_channels)
        return self.remapper.decode_batch(matrix)

    def _refill_window(self) -> None:
        """Decode :data:`ADDRESS_WINDOW` bundles from the issue cursor on —
        a short stream's whole stream, at once.

        ``configure`` proved every address of the stream lies inside the
        scratchpad it was decoded for, so every bank is below that
        scratchpad's bank count; only a memory with fewer banks needs the
        window's banks range-checked."""
        step = self.requests_issued
        count = min(
            ADDRESS_WINDOW + self.design.address_buffer_depth,
            self.total_bundles - step,
        )
        banks, lines = self._decode(step, count)
        memory = self._memory
        if memory.geometry.num_banks < self.remapper.geometry.num_banks:
            memory.check_banks(int(banks.min()), int(banks.max()))
        self._window_start = step
        self._window = list(zip(banks.tolist(), lines.tolist()))

    def issue_requests(self, memory: MemorySubsystem) -> int:
        """Issue at most one word: one request on every active channel.

        The decision is the streamer's: its channels share the address and
        the credit, so they issue together or not at all."""
        if self._memory is not memory:
            self.bind(memory)
        step = self.requests_issued
        generated = self.bundles_generated
        if step == generated:
            return 0  # no address
        is_read = self.is_read
        if is_read:
            # ORM: ``requests_issued - words_streamed`` reads own a slot.
            if step >= self.words_streamed + self.design.data_buffer_depth:
                self.credit_stall_cycles += 1
                return 0
        elif step == self.words_streamed:
            return 0  # no data: every pushed word is issued
        # The address FIFO only grows between two issues.
        if generated - step > self.max_addr_occupancy:
            self.max_addr_occupancy = generated - step
        row = step - self._window_start
        if not 0 <= row < len(self._window):
            self._refill_window()
            row = step - self._window_start
        banks, lines = self._window[row]
        if is_read:
            for port, bank, line in zip(self.ports, banks, lines):
                if not port.registered:
                    memory.register(port)
                port.pending.append((bank, line, None, None))
        else:
            for port, bank, line in zip(self.ports, banks, lines):
                if not port.registered:
                    memory.register(port)
                port.pending.append((bank, line, port.sink.pop(), None))
        self.requests_issued = step + 1
        issued = len(self.ports)
        memory.pending_requests += issued
        self.cycle_activity += issued
        return issued

    # ------------------------------------------------------------------
    # Parking (see the module docstring and docs/ENGINE.md).
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Charge the cycles sat out so far; the streamer stays parked."""
        if self.parked_cycles:
            self.advance(self.parked_cycles)
            self.parked_cycles = 0

    def wake(self) -> None:
        """Settle and unpark — called *before* the waking event mutates a
        FIFO, because :meth:`advance` reads the credits as they stood."""
        self.settle()
        self.parked = False

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle at which this streamer can act on its own.

        ``now`` when the AGU can produce a bundle this cycle or the MICs can
        issue a word; ``None`` when the streamer is drained
        ("all my addresses are generated") or blocked on the accelerator
        consuming/producing a word, which the accelerators report.
        """
        if self.bundles_generated < self.total_bundles and self._prefetch_gate_open():
            return now
        return now if self.can_issue() else None

    def credit_stalled(self) -> bool:
        """A read streamer holding an address but no free data-FIFO slot:
        every in-flight or buffered read owns one (the Outstanding Request
        Manager's rule).  It counts one ``credit_stall_cycles`` per cycle."""
        return self.is_read and (
            self.words_streamed + self.design.data_buffer_depth
            <= self.requests_issued
            < self.bundles_generated
        )

    def can_issue(self) -> bool:
        """Whether the MICs could issue a word this cycle; when not, they
        wait on the AGU or on the accelerator (a pop frees a credit, a push
        brings data)."""
        if self.requests_issued == self.bundles_generated:
            return False
        if self.is_read:
            return not self.credit_stalled()
        return self.requests_issued < self.words_streamed

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` skipped cycles to the streamer's counters.

        Mirrors what :meth:`issue_requests` would have recorded had it been
        entered once per cycle across an inactive span: a credit-stalled
        read streamer counts a credit stall per cycle.
        """
        if self.credit_stalled():
            self.credit_stall_cycles += cycles

    # ------------------------------------------------------------------
    # Steady-span protocol (see repro.engine.steady).
    # ------------------------------------------------------------------
    def period_counters(self) -> list:
        """What a steady period advances: the streamer's three counters, then
        each channel's five (grants, deliveries, retries, data pushes/pops).
        The AGU's position is not one: it stops at the stream's end, so
        :meth:`replay_span` advances it."""
        counters = [
            (self, name)
            for name in ("words_streamed", "requests_issued", "credit_stall_cycles")
        ]
        for port in self.ports:
            counters += [
                (port, "granted"),
                (port, "delivered"),
                (port, "retries"),
                (port.sink, "total_pushes"),
                (port.sink, "total_pops"),
            ]
        return counters

    def period_signature(self) -> tuple:
        """The pop flag, the address-FIFO occupancy and, per channel, the
        data-FIFO occupancy, words in flight and words pending."""
        issued = self.requests_issued
        return (
            self._popped_this_cycle,
            self.bundles_generated - issued,
            [
                (len(port.sink.entries), issued - port.delivered, len(port.pending))
                for port in self.ports
            ],
        )

    @staticmethod
    def period_rows(delta: list) -> int:
        """Bundle rows one steady period of :meth:`period_counters`' change
        ``delta`` covers: its issues (the signature holds the address FIFO,
        so as many bundles were generated)."""
        return delta[1]

    def plan_span(self, delta: list, periods: int, flights) -> Optional[StreamSpan]:
        """Check that one steady period — ``delta`` is :meth:`period_counters`'
        change over it — moved every channel one word per bundle, with this
        boundary's queues where the counters put them, and decode the rows
        for the period before and ``periods`` after; ``None`` when the
        stream stood still.  ``flights`` holds each port's in-flight ready
        cycles.

        The span's ``periods_left`` leaves the issue cursor one address
        short of the stream's end.  While an address stays queued, issue
        timing, credit stalls, data FIFOs and grants are the steady
        period's even once the AGU has generated its last bundle; only
        ``bundles_generated`` sees the AGU stop."""
        words, bundles = delta[:2]  # the period's pops/pushes and issues
        issued = self.requests_issued
        popped = self.words_streamed
        if bundles == 0:
            if words:
                raise SteadyBail("quiescent_drift")
        elif words != bundles:
            raise SteadyBail("ragged_cadence")
        # Isolation candidate: never contended in the reference period, and
        # every channel granted as far with the same response timings.
        contended = False
        skews = set()
        moves = zip(self.ports, delta[3::5], delta[4::5], delta[5::5])
        for port, granted, delivered, retries in moves:
            if bundles == 0:
                if granted or delivered:
                    raise SteadyBail("quiescent_drift")
                if issued != port.delivered:
                    # A frozen channel with traffic in the memory pipeline
                    # cannot stay frozen for a whole span.
                    raise SteadyBail("quiescent_traffic")
                continue
            if (granted, delivered) != (bundles, bundles):
                raise SteadyBail("ragged_cadence")
            flying = flights.get(port, [])
            contended = contended or retries != 0
            skews.add((port.granted, port.delivered, tuple(flying)))
            buffered = port.delivered - popped if self.is_read else popped - issued
            if (
                len(port.pending) != issued - port.granted
                or len(flying) != port.granted - port.delivered
                or len(port.sink.entries) != buffered
            ):
                raise SteadyBail("window_mismatch")
        if bundles == 0:
            return None
        # One period back: the rows cover the reference period's grants too.
        lo = min([port.granted for port in self.ports]) - bundles
        hi = min(self.bundles_generated + periods * bundles, self.total_bundles)
        banks, lines = self._decode(lo, hi - lo)
        return StreamSpan(
            self,
            bundles,
            self.bundles_generated,
            lo,
            banks,
            lines,
            [port.granted - lo for port in self.ports],
            not contended and len(skews) == 1,
            (self.total_bundles - 1 - issued) // bundles,
        )

    def replay_span(self, span: StreamSpan, periods: int, memory, flying, pushed=None):
        """Apply ``periods`` of a verified ``span`` to this streamer's words:
        the scratchpad access, the channels' queues and the bank grants, and
        advance the AGU's position, which stops at the stream's end (the
        planner advances the counters after).

        A read streamer returns the wide words popped over the span; a write
        streamer stores ``pushed``, the wide words pushed over it.  Each
        port's in-flight words after the span go to ``flying``.  A word's
        step is its position: a channel's stream runs from its oldest
        queued word — buffered then in flight when reading, pending then
        buffered when writing — through the span's last, so the words queued
        after the span are the ``count`` rows on.  One ``(rows, channels)``
        array of words holds every channel's stream from row 0, so the
        popped or stored wide words are its first ``count`` rows; each
        channel's span words start after its own queued ones."""
        count = periods * span.delta
        ports = self.ports
        is_read = self.is_read
        cells = memory.scratchpad.words
        word = cells.dtype
        banks, keys = span.grants
        issued, words = self.requests_issued, self.words_streamed
        if is_read:
            in_flight = memory.in_flight_words()
            queued = [[*port.sink.entries, *in_flight[port]] for port in ports]
            spanned = cells[keys]
        else:
            data = itemgetter(2)  # of a pending (bank, line, data, request)
            queued = [[*map(data, port.pending), *port.sink.entries] for port in ports]
            spanned = self.extensions.apply_batch(pushed).view(word)
        depths = [len(entries) for entries in queued]
        # The channels that queued as many words move together: their
        # queued words, then the span's, are one row slice of them — of all
        # channels when every channel queued as many.
        groups: Dict[int, list] = {}
        for column, depth in enumerate(depths):
            groups.setdefault(depth, []).append(column)
        streams = np.empty((max(groups) + count, len(ports)), word)
        for depth, columns in groups.items():
            where = slice(None) if len(columns) == len(ports) else columns
            if depth:
                joined = b"".join(
                    [queued[column][row] for row in range(depth) for column in columns]
                )
                streams[:depth, where] = np.frombuffer(joined, word).reshape(depth, -1)
            streams[depth : depth + count, where] = spanned[:, where]
        if not is_read:
            cells[keys] = streams[:count]
        # The words queued after the span, copied out so that the queues
        # do not hold the whole span's array, and the span rows each channel
        # has not been granted yet, as lists for every channel at once.
        queues = streams[count:].view(np.uint8).reshape(-1, len(ports), word.itemsize)
        queues = queues.copy()
        first = min([port.granted for port in ports]) + count - span.lo
        end = issued + count - span.lo
        waiting = zip(
            span.banks[first:end].T.tolist(), span.lines[first:end].T.tolist()
        )
        for column, (port, (bank_rows, line_rows)) in enumerate(zip(ports, waiting)):
            queue = queues[: depths[column], column]
            if is_read:
                buffered = port.delivered - words
                fifo, flying[port] = queue[:buffered], iter(queue[buffered:])
            else:
                fifo, flying[port] = queue[issued - port.granted :], repeat(None)
            skip = port.granted + count - span.lo - first
            port.pending = deque(
                zip(
                    bank_rows[skip:],
                    line_rows[skip:],
                    repeat(None) if is_read else queue,
                    repeat(None),
                )
            )
            if len(fifo) or port.sink.entries:
                port.sink.replace_entries(fifo)
        memory.replay_grants(banks, is_read, span.isolated and ports)
        self.bundles_generated = min(span.generated + count, self.total_bundles)
        if is_read:
            popped = streams[:count].view(np.uint8).reshape(count, -1)
            return self.extensions.apply_batch(popped)
        return None

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def statistics(self, memory: Optional[MemorySubsystem] = None) -> StreamerStats:
        """Streamer totals; the inactive channels, which never issue, add 0.
        With ``memory`` (the one the streamer is bound to) they include the
        ports' grants and retries."""
        self.settle()
        stats = StreamerStats(name=self.name)
        stats.words_streamed = self.words_streamed
        stats.requests_issued = self.requests_issued * len(self.fifos)
        if memory is not None:
            for port in self.ports:
                stats.requests_granted += port.granted
                stats.bank_conflict_retries += port.retries
        stats.extension_words = self.extensions.statistics()
        return stats

    def channel_statistics(self) -> Dict[str, dict]:
        """One row per channel of the design, in channel order; a channel the
        kernel leaves inactive reads as a fresh one (all zero)."""
        self.settle()
        # The occupancy since the last issue is still unsampled.
        self.max_addr_occupancy = max(
            self.max_addr_occupancy, self.bundles_generated - self.requests_issued
        )
        rows = {}
        for index, fifo in enumerate(self.fifos):
            rows[f"{self.name}.ch{index}"] = {
                "requests_issued": self.requests_issued,
                "responses_received": self.ports[index].delivered if self.ports else 0,
                "credit_stall_cycles": self.credit_stall_cycles,
                "max_data_occupancy": fifo.max_occupancy,
                "max_addr_occupancy": self.max_addr_occupancy,
            }
        for index in range(len(self.fifos), self.design.num_channels):
            rows[f"{self.name}.ch{index}"] = dict.fromkeys(CHANNEL_FIELDS, 0)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "read" if self.is_read else "write"
        return (
            f"DataMaestro(name={self.name!r}, mode={mode}, "
            f"channels={self.design.num_channels}, "
            f"active={self.active_channels})"
        )
