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
on: a bank conflict delays one channel while the others are served, and
its data FIFO absorbs the jitter.  The streamer, not its ports, owns the
channels' **grant and delivery cursors**: ``rows_granted`` /
``rows_delivered``, the lowest and every channel's while they agree (a row
granted or delivered whole is one bump), and ``channel_grants`` /
``channel_deliveries`` only while they differ.  Ports (``granted`` /
``delivered``) and banks (their access counts) read them.  The word path
moves *rows* — one word per channel, one bundle — and stores what is
arithmetic as counters:

* every channel's **address FIFO** holds ``bundles_generated -
  requests_issued`` entries, and a channel's **pending** words are the rows
  of the decoded address window (a pure function of the step index) from
  its grant cursor to ``requests_issued``: generating a bundle advances a
  counter, issuing a row advances the issue cursor;
* the streamer holds its **words once per row** in :attr:`rows`, each
  row one wide word: a read row is gathered at its grant when the row is
  granted whole (a list of channel words until its last channel's grant
  when not) and popped once every channel's delivery has passed it
  (``rows_delivered``); a write row is the wide word the accelerator
  pushed, until every channel has stored its part;
* a read channel's **in-flight plus buffered** words are
  ``requests_issued - words_streamed``, so the credit rule, ``busy`` and the
  no-prefetch gate never look at a delivery; its **data FIFO** holds its
  delivery cursor less ``words_streamed`` words (a write channel's
  ``words_streamed - requests_issued``) and its **in-flight** requests are
  ``requests_issued`` less its delivery cursor — a :class:`ChannelFifo` is
  those counts and a high-water mark.

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

import weakref
from collections import deque
from itertools import repeat
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..memory.addressing import BankGeometry
from ..memory.subsystem import MemoryPort, MemorySubsystem, bank_masks
from ..sim.fifo import FifoError
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


class ChannelFifo:
    """One channel's data FIFO: counts over its streamer's rows.

    A read channel holds the words delivered and not yet popped (its
    delivery cursor less ``words_streamed``), a write channel the words
    pushed and not yet issued (``words_streamed - requests_issued``); the
    words themselves are the streamer's :attr:`DataMaestro.rows`.  Only the
    high-water mark is stored, raised by :meth:`note`.  The FIFO refers to
    its streamer weakly: the streamer holds it, and so does the channel's
    port in the memory, which reads the channel's cursors through it."""

    __slots__ = ("depth", "name", "max_occupancy", "_streamer", "_column")

    def __init__(self, streamer: "DataMaestro", column: int) -> None:
        self.depth = streamer.design.data_buffer_depth
        self.name = f"{streamer.name}.ch{column}.data"
        self.max_occupancy = 0
        self._streamer = weakref.ref(streamer)
        self._column = column

    def cursor(self, kind: int) -> int:
        """The channel's grant (``kind`` 0) or delivery (1) cursor."""
        return self._streamer().cursors()[kind][self._column]

    def _counts(self):
        """``(pushes, pops)`` so far."""
        streamer = self._streamer()
        if streamer.is_read:
            return self.cursor(1), streamer.words_streamed
        return streamer.words_streamed, streamer.requests_issued

    @property
    def total_pushes(self) -> int:
        return self._counts()[0]

    @property
    def total_pops(self) -> int:
        return self._counts()[1]

    def __len__(self) -> int:
        pushes, pops = self._counts()
        return pushes - pops

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def is_full(self) -> bool:
        return len(self) >= self.depth

    @property
    def entries(self) -> list:
        """The words held, oldest first."""
        streamer = self._streamer()
        rows = list(streamer.rows)
        column = self._column
        part = streamer.parts[column]
        if streamer.is_read:
            return [
                row[part] if row.__class__ is bytes else row[column]
                for row in rows[: len(self)]
            ]
        issued = streamer.requests_issued - streamer.words_streamed + len(rows)
        return [row[part] for row in rows[issued:]]

    def note(self, occupancy: int) -> None:
        """Record an occupancy the FIFO reached: a new high-water mark, or
        :class:`~repro.sim.fifo.FifoError` past its depth (a read issued
        without a credit)."""
        if occupancy > self.max_occupancy:
            if occupancy > self.depth:
                raise FifoError(
                    f"push into full FIFO '{self.name}' (depth={self.depth})"
                )
            self.max_occupancy = occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelFifo(name={self.name!r}, depth={self.depth})"


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
    #: The rows' :func:`~repro.memory.subsystem.bank_masks`, kept by the
    #: planner for the address window after the replay.
    masks: Optional[np.ndarray] = None

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
        self.fifos: List[ChannelFifo] = []
        #: Each channel's part of a wide word, as a slice of its bytes.
        self.parts: List[slice] = []
        #: Bundles in the programmed stream (``0`` until :meth:`configure`).
        self.total_bundles = 0
        self._registered = False
        self._transforms = False
        self._reset_stream()

    def _reset_stream(self) -> None:
        """The stream's state before its first cycle, unbound."""
        #: The active channels' crossbar ports, named ``<streamer>.ch<i>``,
        #: resolved by :meth:`bind`, and their names.
        self.ports: List[MemoryPort] = []
        self.port_names: tuple = ()
        #: The memory ``ports`` belong to (:meth:`bind`), held weakly: the
        #: memory holds the streamer, whose rows it reads.
        self._memory: Optional[weakref.ref] = None
        self.words_streamed = 0
        #: Bundles generated so far: the stream position, the AGU's only
        #: state (its addresses are a function of the step).
        self.bundles_generated = 0
        #: Words issued so far — also the step of the next address to issue.
        self.requests_issued = 0
        self.credit_stall_cycles = 0
        #: Sampled before each issue and by :meth:`channel_statistics` (the
        #: address FIFO only grows between).
        self.max_addr_occupancy = 0
        #: The words held once per row, each a wide word: a read row (steps
        #: ``words_streamed`` on) from its grant — a list of channel words
        #: while only some are granted — to its pop; a write row (steps up
        #: to ``words_streamed``) from its push until every channel has
        #: stored its part.
        self.rows: Deque = deque()
        #: The lowest grant and delivery cursors (every channel's while they
        #: agree) and each channel's, only while they differ.
        self.rows_granted = self.rows_delivered = 0
        self.channel_grants: Optional[List[int]] = None
        self.channel_deliveries: Optional[tuple] = None
        #: The lowest data-FIFO high-water mark among the channels: an
        #: occupancy above it has a mark to raise.
        self.fill_mark = 0
        self._popped_this_cycle = False
        #: State changes this streamer made since :meth:`begin_cycle` (words
        #: popped or pushed, a bundle generated, requests issued); zero after
        #: the issue phase makes it parkable.
        self.cycle_activity = 0
        #: Set by the system after a zero-activity cycle, cleared by
        #: :meth:`wake`; ``parked_cycles`` counts the cycles sat out since.
        self.parked = False
        self.parked_cycles = 0
        #: Decoded rows for steps ``[window_start, +len(window))`` as
        #: ``(banks, mask, keys, gather)`` (see ``repro.memory.subsystem``): every
        #: channel's pending words.  A pure function of the step index, so a
        #: macro jump simply lands outside (or inside) it.
        self.window: list = []
        self.window_start = 0

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
        if self.rows_granted or self.channel_grants:
            self._fold_grants()
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
        self.extensions.set_enables(
            runtime.extension_enables or [True] * len(self.extensions)
        )
        for kind, params in runtime.extension_params_dict().items():
            if self.extensions.stage(kind) is not None:
                self.extensions.configure_stage(kind, **dict(params))
        #: Whether a popped word goes through an enabled extension, which
        #: transforms arrays; a bypassed cascade passes bytes on untouched.
        self._transforms = any(stage.enabled for stage in self.extensions.stages)
        self.fifos = [ChannelFifo(self, index) for index in range(self.active_channels)]
        width = design.bank_width_bytes
        self.parts = [
            slice(index * width, (index + 1) * width)
            for index in range(self.active_channels)
        ]
        self._reset_stream()

    def bind(self, memory: MemorySubsystem) -> None:
        """Resolve every active channel's port in ``memory``, once per
        kernel: from here on the memory grants the channels' rows and counts
        each port's grants and deliveries from zero.  The system binds at
        load; a hand-driven streamer binds at its first
        :meth:`issue_requests`."""
        if self.rows_granted or self.channel_grants:
            self._fold_grants()
        self._memory = weakref.ref(memory)
        self._registered = False
        self.ports = []
        for index, fifo in enumerate(self.fifos):
            port = memory.bind(f"{self.name}.ch{index}")
            port.sink = fifo
            port.retries = 0
            self.ports.append(port)
        self.port_names = tuple(port.name for port in self.ports)
        self.pack = memory.row_packer(len(self.ports))
        self.rows_granted = self.rows_delivered = 0
        self.channel_grants = self.channel_deliveries = None
        self.window = []

    def _fold_grants(self) -> None:
        """Count the cursors' grants on the banks themselves, before a restart."""
        if self.memory is not None:
            self.memory.scratchpad.fold(self)

    @property
    def memory(self) -> Optional[MemorySubsystem]:
        return self._memory and self._memory()

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
        return self.is_write and (issued != generated or self.rows_delivered != issued)

    @property
    def done(self) -> bool:
        return self.configured and not self.busy

    def cursors(self) -> tuple:
        """Every channel's grant cursor and delivery cursor, two lists."""
        channels = len(self.fifos)
        return (
            self.channel_grants or [self.rows_granted] * channels,
            self.channel_deliveries or [self.rows_delivered] * channels,
        )

    def granted_banks(self) -> np.ndarray:
        """The bank of every word granted so far: each channel's rows below
        its grant cursor, decoded again (a row is a function of its step)."""
        grants = self.cursors()[0]
        high = max(grants, default=0)
        if not high:
            return np.zeros(0, np.intp)
        banks, _ = self._decode(0, high)
        return banks[np.arange(high)[:, np.newaxis] < grants]

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
        return self.rows_delivered > self.words_streamed

    def pop_word(self):
        """Consume one wide word (read mode): the oldest row.

        The channels' words — bytes-like copies taken at their grants — are
        joined into one ``bytes``, or, when a datapath extension transforms
        words, into the flat uint8 array the cascade returns.  Valid only
        after :meth:`output_valid` returned True this cycle; an empty channel
        raises :class:`~repro.sim.fifo.FifoError`.
        """
        if not self.is_read:
            raise RuntimeError(f"{self.name}: pop on a write-mode streamer")
        if self.parked:
            self.wake()
        if self.rows_delivered <= self.words_streamed:
            empty = [fifo for fifo in self.fifos if not len(fifo)]
            raise FifoError(f"pop from empty FIFO '{empty[0].name}'")
        word = self.rows.popleft()
        self.words_streamed += 1
        self._popped_this_cycle = True
        self.cycle_activity += 1
        if self._transforms:
            word = np.frombuffer(word, np.uint8)
        return self.extensions.apply(word)

    def pop_output(self) -> np.ndarray:
        """:meth:`pop_word` as a flat uint8 array, read-only unless an
        extension rebuilt it."""
        word = self.pop_word()
        return word if isinstance(word, np.ndarray) else np.frombuffer(word, np.uint8)

    def input_ready(self) -> bool:
        """Write mode: True when every active channel can accept a word."""
        if not self.is_write or self.agu is None:
            return False
        buffered = self.words_streamed - self.requests_issued
        return buffered < self.design.data_buffer_depth

    def push_input(self, word: np.ndarray) -> None:
        """Accept one wide word from the accelerator (write mode): one row."""
        if not self.input_ready():
            raise RuntimeError(f"{self.name}: push_input() while input not ready")
        payload = np.asarray(word, dtype=np.uint8).ravel()
        payload = self.extensions.apply(payload)
        expected = self.active_channels * self.design.bank_width_bytes
        if payload.size != expected:
            raise ValueError(
                f"{self.name}: wide word must be {expected} bytes, got {payload.size}"
            )
        if self.parked:
            self.wake()
        row = payload.data  # what the grants store from, without a copy
        self.rows.append(row if row.c_contiguous else memoryview(payload.tobytes()))
        self.words_streamed += 1
        occupancy = self.words_streamed - self.requests_issued
        if occupancy > self.fill_mark:
            for fifo in self.fifos:
                fifo.note(occupancy)
            self.fill_mark = occupancy
        self.cycle_activity += 1

    def fill(self, occupancy: int, fifos: Sequence[ChannelFifo]) -> None:
        """Raise data FIFOs ``fifos``' high-water marks to ``occupancy``, what
        the delivery that just reached them left (read mode)."""
        for fifo in fifos:
            fifo.note(occupancy)
        self.fill_mark = min([fifo.max_occupancy for fifo in self.fifos])

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
        decoded when it is issued.
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

    def _refill_window(self, memory: MemorySubsystem) -> None:
        """Decode the rows from the lowest grant cursor through
        :data:`ADDRESS_WINDOW` bundles past the issue cursor — a short
        stream's whole stream, at once."""
        start = self.rows_granted
        count = min(
            -(-ADDRESS_WINDOW * 8 // self.active_channels)
            + self.design.address_buffer_depth
            + self.requests_issued - start,
            self.total_bundles - start,
        )
        banks, lines = self._decode(start, count)
        self._set_window(memory, start, banks, lines)

    def _set_window(self, memory, start, banks, lines, masks=None) -> None:
        """Make decoded rows ``banks`` / ``lines`` from step ``start`` on the
        address window, in ``memory``'s words: each row's banks, their
        :func:`~repro.memory.subsystem.bank_masks` (``masks`` when the
        caller has them), each word's index in the scratchpad and the
        row's gather (:meth:`~repro.memory.subsystem.MemorySubsystem.row_gathers`).

        ``configure`` proved every address of the stream lies inside the
        scratchpad it was decoded for, so only a memory with fewer banks or
        wordlines needs the rows range-checked."""
        geometry = memory.geometry
        decoded = self.remapper.geometry
        if geometry.num_banks < decoded.num_banks:
            memory.check_banks(int(banks.min()), int(banks.max()))
        depth, width = geometry.bank_depth, geometry.bank_width_bytes
        if depth < decoded.bank_depth and lines.size and lines.max() >= depth:
            where = tuple(np.argwhere(lines >= depth)[0])
            memory.scratchpad.banks[int(banks[where])]._check_line(int(lines[where]))
        keys = (banks * depth + lines).tolist()
        if masks is None:
            masks = bank_masks(banks, geometry.num_banks)
        if masks.shape[1] == 1:
            masks = masks[:, 0].tolist()
        else:  # several 64-bit words a mask, joined into one int
            masks = [sum(w << 64 * i for i, w in enumerate(m)) for m in masks.tolist()]
        gathers = memory.row_gathers(keys) if self.is_read else repeat(None)
        self.window = list(zip(banks.tolist(), masks, keys, gathers))
        self.window_start = start

    def issue_requests(self, memory: MemorySubsystem) -> int:
        """Issue at most one row: one request on every active channel.

        The decision is the streamer's: its channels share the address and
        the credit, so they issue together or not at all.  Nothing is
        queued: the row waits in the address window until its grants."""
        bound = self._memory
        if bound is None or bound() is not memory:
            self.bind(memory)
        step = self.requests_issued
        generated = self.bundles_generated
        if step == generated:
            return 0  # no address
        if self.is_read:
            # ORM: ``requests_issued - words_streamed`` reads own a slot.
            if step >= self.words_streamed + self.design.data_buffer_depth:
                self.credit_stall_cycles += 1
                return 0
        elif step == self.words_streamed:
            return 0  # no data: every pushed word is issued
        # The address FIFO only grows between two issues.
        if generated - step > self.max_addr_occupancy:
            self.max_addr_occupancy = generated - step
        if step - self.window_start >= len(self.window):
            self._refill_window(memory)
        if not self._registered:
            memory.register_stream(self)
            self._registered = True
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
        """What a steady period advances: five streamer counters, the lowest
        cursors among them, then each channel's retries; :meth:`replay_span`
        moves a skewed channel's cursors and the AGU (which stops at the end)."""
        names = (
            "words_streamed",
            "requests_issued",
            "credit_stall_cycles",
            "rows_granted",
            "rows_delivered",
        )
        return [(self, name) for name in names] + [
            (port, "retries") for port in self.ports
        ]

    def period_signature(self) -> tuple:
        """The pop flag, the address-FIFO occupancy and, per channel, the
        data-FIFO occupancy, words in flight and words pending."""
        issued, words = self.requests_issued, self.words_streamed
        grants, deliveries = self.cursors()
        return (
            self._popped_this_cycle,
            self.bundles_generated - issued,
            [
                (
                    delivered - words if self.is_read else words - issued,
                    issued - delivered,
                    issued - granted,
                )
                for granted, delivered in zip(grants, deliveries)
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
        change over it — moved every channel one word per bundle, and decode
        the rows for the period before and ``periods`` after; ``None`` when
        the stream stood still.  ``flights`` holds each port's in-flight
        ready cycles.

        The span's ``periods_left`` leaves the issue cursor one address
        short of the stream's end.  While an address stays queued, issue
        timing, credit stalls, data FIFOs and grants are the steady
        period's even once the AGU has generated its last bundle; only
        ``bundles_generated`` sees the AGU stop."""
        words, bundles = delta[:2]  # the period's pops/pushes and issues
        issued = self.requests_issued
        # Every pop or push and both lowest cursors moved with the issues
        # (the signature held each channel's cursors).
        if words != bundles or delta[3:5] != [bundles, bundles]:
            raise SteadyBail("quiescent_drift" if bundles == 0 else "ragged_cadence")
        # Isolation candidate: never contended in the reference period, and
        # every channel granted as far with the same response timings.
        contended = False
        skews = set()
        # :meth:`cursors` inline: a jump's budget counts its calls.
        grants = self.channel_grants or [self.rows_granted] * len(self.ports)
        deliveries = self.channel_deliveries or [self.rows_delivered] * len(self.ports)
        moves = zip(self.ports, grants, deliveries, delta[5:])
        for port, granted, delivered, retries in moves:
            if bundles == 0:
                if issued != delivered:
                    # A frozen channel with traffic in the memory pipeline
                    # cannot stay frozen for a whole span.
                    raise SteadyBail("quiescent_traffic")
                continue
            contended = contended or retries != 0
            skews.add((granted, delivered, tuple(flights.get(port, []))))
        if bundles == 0:
            return None
        # One period back: the rows cover the reference period's grants too.
        lo = self.rows_granted - bundles
        hi = min(self.bundles_generated + periods * bundles, self.total_bundles)
        banks, lines = self._decode(lo, hi - lo)
        return StreamSpan(
            self,
            bundles,
            self.bundles_generated,
            lo,
            banks,
            lines,
            [granted - lo for granted in grants],
            not contended and len(skews) == 1,
            (self.total_bundles - 1 - issued) // bundles,
        )

    def replay_span(self, span: StreamSpan, periods: int, memory, pushed=None):
        """Apply ``periods`` of a verified ``span`` to this streamer's words:
        the scratchpad access, the rows and the bank grants, and advance the
        AGU's position, which stops at the stream's end, and the address
        window (the planner advances the counters after).

        A read streamer returns the wide words popped over the span; a write
        streamer stores ``pushed``, the wide words pushed over it.  One
        ``(rows, channels)`` array of words holds every channel's words in
        step order: a read stream's from its oldest row (``words_streamed``)
        on, the rows held and then each channel's span grants, so the popped
        wide words are its first ``count`` rows and the rest are the rows
        held after the span; a write stream's from its oldest row (the
        lowest grant cursor) on, the rows held and then the words pushed, so
        each channel stores ``count`` of them from its own grant cursor."""
        count = periods * span.delta
        ports = self.ports
        channels = len(ports)
        cells = memory.scratchpad.words
        word = cells.dtype
        rows = self.rows
        words = self.words_streamed
        banks, keys = span.grants
        held = self._held(word)
        grants = self.channel_grants or [self.rows_granted] * channels  # as plan_span
        if self.is_read:
            # Channel c's words held are steps ``words ..`` its grant cursor.
            offsets = [granted - words for granted in grants]
            streams = np.empty((max(offsets) + count, channels), word)
            streams[: len(held)] = held
            spanned = cells[keys]
            for offset, where in _groups(offsets):
                streams[offset : offset + count, where] = spanned[:, where]
            self.rows = _split(streams[count:].tobytes(), channels * word.itemsize)
            if self.channel_grants is not None:
                # A channel's words after the span end at its grant cursor,
                # so the rows from the lowest one on are partly granted.
                for index in range(min(offsets), len(self.rows)):
                    parts = map(self.rows[index].__getitem__, self.parts)
                    self.rows[index] = [
                        part if index < offset else None
                        for part, offset in zip(parts, offsets)
                    ]
        else:
            low = words - len(rows)
            streams = np.concatenate(
                [held, self.extensions.apply_batch(pushed).view(word)]
            )
            offsets = [granted - low for granted in grants]
            written = np.empty((count, channels), word)
            for offset, where in _groups(offsets):
                written[:, where] = streams[offset : offset + count, where]
            cells[keys] = written
            self.rows = _split(streams[count:].tobytes(), channels * word.itemsize)
        if span.isolated:
            memory.replay_pointers(banks, ports)
        self.bundles_generated = min(span.generated + count, self.total_bundles)
        # Skewed channels' cursors move too; the planner moves the lowest.
        if self.channel_grants is not None:
            self.channel_grants = list(map(count.__add__, self.channel_grants))
        if self.channel_deliveries is not None:
            self.channel_deliveries = tuple(map(count.__add__, self.channel_deliveries))
        # The rows still pending after the span are rows the span decoded.
        granted = self.rows_granted + count
        pending = self.requests_issued + count
        start = self.window_start
        if start > granted or pending - start > len(self.window):
            first = granted - span.lo
            last = pending - span.lo
            masks = None if span.masks is None else span.masks[first:last]
            self._set_window(
                memory, granted, span.banks[first:last], span.lines[first:last], masks
            )
        if self.is_read:
            popped = streams[:count].view(np.uint8).reshape(count, -1)
            return self.extensions.apply_batch(popped)
        return None

    def _held(self, word: np.dtype) -> np.ndarray:
        """The rows held as a ``(rows, channels)`` array of ``word``: a
        row's wide word, or a read row's channel words while some are not
        granted yet (only a skewed stream has one; those read as zero)."""
        rows = self.rows
        if not self.is_read or self.channel_grants is None:
            joined = b"".join(rows)
        else:
            zero = bytes(word.itemsize)
            joined = b"".join(
                [
                    row if row.__class__ is bytes else
                    b"".join([part or zero for part in row])
                    for row in rows
                ]
            )
        return np.frombuffer(joined, word).reshape(len(rows), len(self.ports))

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
            stats.requests_granted = sum(self.cursors()[0])
            for port in self.ports:
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
        deliveries = self.cursors()[1]
        for index, fifo in enumerate(self.fifos):
            rows[f"{self.name}.ch{index}"] = {
                "requests_issued": self.requests_issued,
                "responses_received": deliveries[index],
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


def _split(blob: bytes, width: int) -> Deque[bytes]:
    """``blob`` cut into rows of ``width`` bytes."""
    ends = range(width, len(blob) + 1, width)
    return deque(map(blob.__getitem__, map(slice, range(0, len(blob), width), ends)))


def _groups(offsets: List[int]):
    """The channels at each distinct row offset ``offsets[c]``, as ``(offset,
    where)``: one slice assignment moves a group's words (``where`` is every
    channel when they all share one offset)."""
    groups: Dict[int, list] = {}
    for column, offset in enumerate(offsets):
        groups.setdefault(offset, []).append(column)
    if len(groups) == 1:
        return ((offsets[0], slice(None)),)
    return groups.items()
