"""DataMaestro streaming engine top level (paper §III-A, Fig. 2(a)).

A :class:`DataMaestro` bridges the multi-banked scratchpad and one accelerator
port.  In **read mode** it prefetches data from memory into its per-channel
data FIFOs, assembles the channel words into one wide word, pushes that word
through the (optional) datapath-extension cascade and presents it to the
accelerator with valid/ready semantics.  In **write mode** it accepts wide
words from the accelerator, splits them across channels and drains them to
memory.

The per-cycle methods are called by the surrounding system model in a fixed
phase order (see :class:`repro.system.system.AcceleratorSystem`):

1. :meth:`collect_responses` — drain matured memory responses into FIFOs;
2. the accelerator consumes/produces wide words via
   :meth:`output_valid`/:meth:`pop_output` and
   :meth:`input_ready`/:meth:`push_input`;
3. :meth:`generate_addresses` — the AGU produces at most one address bundle
   per cycle (gated by the prefetch mode);
4. :meth:`issue_requests` — every channel's MIC issues at most one memory
   request, subject to its Outstanding-Request-Manager credits.

Disabling ``fine_grained_prefetch`` reproduces the ablation baseline: the AGU
only produces the next bundle once the previous word has been fully consumed
and every channel is idle, so memory latency and bank conflicts hit the
accelerator directly instead of being hidden by the FIFOs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..memory.addressing import BankGeometry, BankLocation
from ..memory.subsystem import MemorySubsystem
from ..sim.stats import StreamerStats
from .agu import AddressGenerationUnit
from .channel import ChannelAddress, StreamChannel
from .extensions import ExtensionPipeline
from .params import StreamerDesign, StreamerMode, StreamerRuntimeConfig
from .remapper import AddressRemapper


#: Bundles decoded per vectorised address-window refill: large enough to
#: amortise the numpy evaluation, small enough that the lookahead stays a
#: few hundred KB per streamer whatever the stream length.
ADDRESS_WINDOW = 128


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
        self.channels: List[StreamChannel] = [
            StreamChannel(design.name, index, design)
            for index in range(design.num_channels)
        ]
        self.extensions = ExtensionPipeline.from_specs(design.extensions)
        self.agu: Optional[AddressGenerationUnit] = None
        self.runtime: Optional[StreamerRuntimeConfig] = None
        self.prefetch_enabled = True
        self.active_channels = design.num_channels
        #: The channels the programmed kernel uses (``channels[:active_channels]``).
        self._active: List[StreamChannel] = self.channels
        self.words_streamed = 0
        self.bundles_generated = 0
        self._popped_this_cycle = False
        #: Decoded bundles for steps ``[_window_start, +len(_window))`` as
        #: ``(logicals, banks, lines, offsets)`` list rows — a row becomes
        #: ``ChannelAddress`` objects only when it is served, so a macro jump
        #: past the window wastes no construction.  A pure function of the
        #: step index: an AGU fast-forward simply lands outside (or inside) it.
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
        runtime.validate_against(self.design)
        self.runtime = runtime
        self.prefetch_enabled = bool(prefetch_enabled)
        self.active_channels = runtime.active_channels or self.design.num_channels
        self._active = self.channels[: self.active_channels]
        self.remapper.select_group_size(runtime.bank_group_size)
        self.agu = AddressGenerationUnit(
            temporal_bounds=runtime.temporal_bounds,
            temporal_strides=runtime.temporal_strides,
            spatial_bounds=self.design.spatial_bounds,
            spatial_strides=runtime.spatial_strides,
            base_address=runtime.base_address,
        )
        self._check_address_range()
        self._window = []
        if runtime.extension_enables:
            self.extensions.set_enables(runtime.extension_enables)
        else:
            self.extensions.set_enables([True] * len(self.extensions))
        for kind, params in runtime.extension_params_dict().items():
            if self.extensions.stage(kind) is not None:
                self.extensions.configure_stage(kind, **dict(params))
        for channel in self.channels:
            channel.reset()
        self.words_streamed = 0
        self.bundles_generated = 0
        self._popped_this_cycle = False

    def _check_address_range(self) -> None:
        """Reject a stream that would leave the scratchpad, before cycle 0.

        Every loop dimension is independent, so the extreme addresses are
        the base plus each dimension's extreme ``(bound - 1) * stride`` plus
        the extreme spatial offset — no address matrix needed.
        """
        temporal = self.agu.temporal
        reach = [(b - 1) * s for b, s in zip(temporal.bounds, temporal.strides)]
        offsets = self.agu.spatial.offsets[: self.active_channels]
        lowest = temporal.base_address + sum(min(r, 0) for r in reach) + min(offsets)
        highest = temporal.base_address + sum(max(r, 0) for r in reach) + max(offsets)
        capacity = self.remapper.geometry.capacity_bytes
        for address in (lowest, highest):
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
        if self.agu is None:
            return False
        if not self.agu.exhausted:
            return True
        return any(channel.busy for channel in self._active)

    @property
    def done(self) -> bool:
        return self.configured and not self.busy

    # ------------------------------------------------------------------
    # Phase 0: per-cycle housekeeping.
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset per-cycle state; called once at the start of every cycle."""
        self._popped_this_cycle = False

    # ------------------------------------------------------------------
    # Phase 1: memory responses.
    # ------------------------------------------------------------------
    def collect_responses(self, memory: MemorySubsystem) -> int:
        """Drain matured responses into the FIFOs; return the count drained."""
        collected = 0
        for channel in self._active:
            if channel.outstanding:
                collected += channel.collect(memory)
        return collected

    # ------------------------------------------------------------------
    # Phase 2: accelerator-facing wide-word interface.
    # ------------------------------------------------------------------
    def output_valid(self) -> bool:
        """Read mode: True when every active channel has a word ready."""
        if not self.is_read or self.agu is None:
            return False
        for channel in self._active:
            if not channel.data_fifo.entries:
                return False
        return True

    def peek_output(self) -> Optional[np.ndarray]:
        """Return the wide word that :meth:`pop_output` would deliver."""
        if not self.output_valid():
            return None
        parts = [channel.data_fifo.peek() for channel in self._active]
        return self.extensions.apply(np.concatenate(parts))

    def pop_output(self) -> np.ndarray:
        """Consume one wide word (read mode).

        Valid only after :meth:`output_valid` returned True this cycle; an
        empty channel raises :class:`~repro.sim.fifo.FifoError`.
        """
        if not self.is_read:
            raise RuntimeError(f"{self.name}: pop_output() on a write-mode streamer")
        parts = [channel.data_fifo.pop() for channel in self._active]
        self.words_streamed += 1
        self._popped_this_cycle = True
        return self.extensions.apply(np.concatenate(parts))

    def input_ready(self) -> bool:
        """Write mode: True when every active channel can accept a word."""
        if not self.is_write or self.agu is None:
            return False
        for channel in self._active:
            if channel.data_fifo.is_full:
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
        for index, channel in enumerate(self._active):
            channel.push_input_word(payload[index * width : (index + 1) * width])
        self.words_streamed += 1

    # ------------------------------------------------------------------
    # Phase 3: address generation.
    # ------------------------------------------------------------------
    def _prefetch_gate_open(self) -> bool:
        """Whether the AGU may produce the next bundle this cycle."""
        for channel in self._active:
            fifo = channel.address_fifo
            if len(fifo.entries) >= fifo.depth:
                return False
        if self.prefetch_enabled or self.is_write:
            return True
        # Prefetch disabled (ablation baseline): behave like a plain data
        # mover — the next word is only requested *after* the previous one
        # has been consumed (no lookahead within the consumption cycle) and
        # every channel is completely idle, so the accelerator pays the full
        # memory round trip for every word.
        if self._popped_this_cycle:
            return False
        for channel in self._active:
            if channel.busy:
                return False
        return True

    def _refill_window(self, step: int) -> None:
        """Decode the next :data:`ADDRESS_WINDOW` bundles from ``step`` on."""
        count = min(ADDRESS_WINDOW, self.agu.total_bundles - step)
        matrix = self.agu.address_matrix(step, count, self.active_channels)
        banks, lines, offsets = self.remapper.decode_batch(matrix)
        self._window_start = step
        self._window = list(
            zip(matrix.tolist(), banks.tolist(), lines.tolist(), offsets.tolist())
        )

    def generate_addresses(self) -> bool:
        """Produce at most one address bundle; return True if one was made."""
        if self.agu is None:
            return False
        temporal = self.agu.temporal
        if temporal.exhausted or not self._prefetch_gate_open():
            return False
        step = temporal.steps_generated
        row = step - self._window_start
        if not 0 <= row < len(self._window):
            self._refill_window(step)
            row = 0
        for channel, logical, bank, line, offset in zip(
            self._active, *self._window[row]
        ):
            channel.address_fifo.push(
                ChannelAddress(logical, BankLocation(bank, line, offset), step)
            )
        temporal.advance()
        self.bundles_generated += 1
        return True

    # ------------------------------------------------------------------
    # Phase 4: request issue.
    # ------------------------------------------------------------------
    def issue_requests(self, memory: MemorySubsystem) -> int:
        """Let every active channel's MIC issue at most one request."""
        issued = 0
        is_read = self.is_read
        for channel in self._active:
            # A channel with no address (or, writing, no data) is idle.
            if (
                channel.address_fifo.entries
                and (is_read or channel.data_fifo.entries)
                and channel.issue(memory)
            ):
                issued += 1
        return issued

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle at which this streamer can act on its own.

        ``now`` when the AGU can produce a bundle this cycle or any channel's
        MIC can issue a request; ``None`` when the streamer is drained
        ("all my addresses are generated") or blocked on external input (a
        memory response, or the accelerator consuming/producing a word) —
        those wake-ups are reported by the memory subsystem and the
        accelerators respectively.
        """
        if self.agu is None:
            return None
        if self.agu.remaining_bundles and self._prefetch_gate_open():
            return now
        for channel in self._active:
            if channel.can_issue():
                return now
        return None

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` skipped cycles to the per-channel counters."""
        for channel in self._active:
            channel.advance(cycles)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def statistics(self, memory: Optional[MemorySubsystem] = None) -> StreamerStats:
        stats = StreamerStats(name=self.name)
        stats.words_streamed = self.words_streamed
        for channel in self.channels:
            stats.requests_issued += channel.requests_issued
            if memory is not None:
                mem_stats = memory.requester_stats(channel.requester_id)
                stats.requests_granted += mem_stats["granted"]
                stats.bank_conflict_retries += mem_stats["retries"]
        stats.extension_words = self.extensions.statistics()
        return stats

    def channel_statistics(self) -> Dict[str, dict]:
        return {
            channel.requester_id: channel.statistics() for channel in self.channels
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "read" if self.is_read else "write"
        return (
            f"DataMaestro(name={self.name!r}, mode={mode}, "
            f"channels={self.design.num_channels}, "
            f"active={self.active_channels})"
        )
