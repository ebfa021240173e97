"""Macro-stepping of *active* steady-state spans (vectorized fast path).

PR 3's event scheduler can only skip cycles in which **nothing** happens.
Compute-bound kernels never present such cycles: once the pipeline fills,
every cycle fires the GeMM core, streams operand words and issues memory
requests — yet the behaviour is *periodic*: each output tile repeats the
same control schedule, only the addresses (and the data) advance.  This
module exploits that periodicity to advance many whole tiles at once while
staying bit-identical to the lockstep engine:

1. **Detect** — at every completed-tile boundary the planner captures a
   structural *signature* (FIFO occupancies, outstanding/pending/in-flight
   shapes with relative timings, the crossbar's rotating-priority state) and
   a flat *counter snapshot*.  When the current boundary's signature equals
   the one ``g`` tiles back (``g`` rising from 1 — some schedules only
   repeat every few tiles), the ``g``-tile stretch that just executed is a
   proven steady period and its counter diff is the per-period delta.

2. **Verify** — identical structure only implies identical behaviour if the
   upcoming addresses cannot change who contends with whom.  The planner
   evaluates every streamer's address span *en bloc* (one vectorized
   mixed-radix AGU evaluation + one vectorized bank decode) and verifies
   each stream one of two ways.  A stream is **isolated** when no channel
   of it was contended in the reference period (zero ``retries`` — the
   arbiter counts winners too), its channels are skew-free at the boundary,
   every bundle row hits pairwise-distinct banks and its bank footprint over
   reference period + span is shared with no other moving stream: its timing
   then does not depend on *which* banks it hits, so its pattern may rotate.
   Every other stream must **tile**: its bank pattern repeats the reference
   period exactly, with the arbiter's rotating pointers on its footprint
   equal at both boundaries.  The first deviating row truncates the jump
   right before its period — the per-cycle loop then handles the conflict
   exactly.  Span reads and writes must also touch disjoint scratchpad
   locations (and writes must be unique) so bulk data movement is
   order-independent.

3. **Replay** — ``r`` verified periods are applied at once: every scalar
   counter advances by ``r x`` its per-period delta (per-bank access counts
   and isolated banks' arbiter pointers are not periodic under rotation and
   come from the span's bank matrix instead), the scratchpad is read
   with one gather and written with one scatter per bank, all MAC steps of
   all tiles collapse into a single ``einsum``, and every queue entry
   becomes its position-shifted image ``r`` periods later: the pending /
   in-flight memory traffic moves in place, the data FIFOs are refilled
   (the address FIFOs are two counters and move with them).  Because
   integer accumulation is associative and the control schedule is proven
   to repeat, the result is exactly the state the per-cycle loop would have
   reached — the ``tests/engine`` parity suite is the referee.

Any precondition failure simply bails (nothing is mutated), so workloads
that never reach a steady state run exactly as before.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..memory.subsystem import MemoryPort

#: Fewest verified periods worth jumping over (amortizes plan/replay cost).
MIN_PERIODS = 2
#: Most bundle rows of any one stream replayed per jump (bounds the planner's
#: address matrices whatever the period length; consecutive jumps chain, so
#: this does not cap the total span).
MAX_ROWS = 2048
#: Largest boundary group considered as one period.  A steady schedule may
#: only repeat every g tiles (e.g. an operand stride that shifts the bank
#: pattern by half a bank group each tile tiles with g == 2), so the planner
#: pairs the current boundary with the one ``g`` tiles back for rising
#: ``g`` until signature and bank pattern both repeat.
MAX_GROUP = 16


class _Bail(Exception):
    """A steady-span precondition failed; fall back to per-cycle stepping."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class SteadySpanStats:
    """Observability counters of the macro-step fast path."""

    boundaries: int = 0
    attempts: int = 0
    jumps: int = 0
    periods_replayed: int = 0
    cycles_skipped: int = 0
    #: How the jumps' moving streams were verified, summed over all jumps.
    isolated_streams: int = 0
    tiled_streams: int = 0
    bails: Dict[str, int] = field(default_factory=dict)

    def bail(self, reason: str) -> None:
        self.bails[reason] = self.bails.get(reason, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class _ChannelSpan:
    """Everything the replayer needs about one active stream channel."""

    port: MemoryPort  # its data FIFO is ``port.sink``
    column: int  # column in the streamer's address matrix
    granted: int
    delivered: int


@dataclass
class _StreamSpan:
    """Per-streamer planning state over the span."""

    streamer: object
    is_read: bool
    delta: int  # positions per channel per period
    generated: int  # bundles generated at the boundary
    issued: int  # the streamer's issue cursor at the boundary
    words: int  # popped (read) / pushed (write) wide-word position
    lo: int  # first bundle step covered by the matrix
    matrix: np.ndarray  # (steps, channels) logical addresses
    banks: np.ndarray
    lines: np.ndarray
    offsets: np.ndarray
    channels: List[_ChannelSpan]
    isolated: bool  # verified by isolation rather than exact tiling


@dataclass
class _Plan:
    """A verified steady span, ready to commit."""

    periods: int
    cycles: int
    end_cycle: int
    delta: np.ndarray
    streams: List[_StreamSpan]
    tiles: int  # output tiles produced across the span (periods x group)


class SteadySpanPlanner:
    """Detects, verifies and replays periodic steady-state spans.

    One planner instance is bound to one loaded
    :class:`~repro.system.system.AcceleratorSystem` program (the system
    creates a fresh planner in ``load_program``).
    """

    def __init__(self, system) -> None:
        # The system owns its planner: a strong reference back would leave
        # every finished system, scratchpad included, to the cycle collector.
        self.system = weakref.proxy(system)
        self.stats = SteadySpanStats()
        self._slots: Optional[List[Tuple[object, str]]] = None
        self._index: Dict[str, int] = {}
        self._plan: Optional[_Plan] = None
        #: Rolling (cycle, signature, snapshot, ``_last_grant``) boundary records.
        self._history: deque = deque(maxlen=MAX_GROUP + 1)
        #: Group sizes whose bank pattern failed to verify (retired until the
        #: next successful jump — the failure is usually persistent).
        self._skip_groups: set = set()

    # ------------------------------------------------------------------
    # Counter snapshot layout: one (object, attribute) pair per scalar
    # counter that must advance by r x its per-period delta on a jump, and
    # a name for each, by which the planner reads the deltas.
    # ------------------------------------------------------------------
    def _build_slots(self) -> None:
        sys = self.system
        mem = sys.memory
        slots: List[Tuple[object, str]] = []
        index: Dict[str, int] = {}

        def attr(name: str, obj: object, attribute: str) -> None:
            index[name] = len(slots)
            slots.append((obj, attribute))

        attr("system.cycles", sys, "_cycles")
        attr("memory.cycle", mem, "cycle")
        for key in ("conflicts", "reads", "writes"):
            attr(f"memory.{key}", mem, f"total_{key}")
        for key in ("reads", "writes"):
            attr(f"memory.dma_{key}", mem, f"dma_{key}")
        gemm = sys.gemm_core
        attr("gemm.mac", gemm, "mac_cycles")
        attr("gemm.stall", gemm, "stall_cycles")
        attr("gemm.tile", gemm, "_tile_index")
        quantizer = sys.quantizer
        attr("quant.tiles", quantizer, "tiles_processed")
        attr("quant.stall", quantizer, "stall_cycles")
        attr("quant.pushes", quantizer._pending, "total_pushes")
        attr("quant.pops", quantizer._pending, "total_pops")
        for name in sys._active_ports:
            streamer = sys.streamers[name]
            attr(f"{name}.words", streamer, "words_streamed")
            attr(f"{name}.bundles", streamer, "bundles_generated")
            attr(f"{name}.issued", streamer, "requests_issued")
            attr(f"{name}.credit_stalls", streamer, "credit_stall_cycles")
            for port in streamer.ports:
                rid = port.name
                attr(f"{rid}.delivered", port, "delivered")
                attr(f"{rid}.data_pushes", port.sink, "total_pushes")
                attr(f"{rid}.data_pops", port.sink, "total_pops")
                attr(f"{rid}.granted", port, "granted")
                attr(f"{rid}.retries", port, "retries")
        self._slots = slots
        self._index = index

    def _capture(self) -> np.ndarray:
        values = [getattr(obj, attribute) for obj, attribute in self._slots]
        return np.array(values, dtype=np.int64)

    def _apply_delta(self, delta: np.ndarray, periods: int) -> None:
        for (obj, attribute), step in zip(self._slots, delta.tolist()):
            if step:
                setattr(obj, attribute, getattr(obj, attribute) + step * periods)

    # ------------------------------------------------------------------
    # Structural signature: everything behaviour-relevant except the
    # monotone stream positions, the data itself and ``_last_grant`` (rewritten
    # on every grant; ``_prepare`` compares it on the tiled streams' banks).
    # ------------------------------------------------------------------
    def _signature(self) -> tuple:
        sys = self.system
        mem = sys.memory
        now = sys._cycles
        parts: List[object] = [
            sys.gemm_core._k_index,
            sys.quantizer._pending.occupancy,
        ]
        for name in sys._active_ports:
            streamer = sys.streamers[name]
            issued = streamer.requests_issued
            queued = streamer.bundles_generated - issued  # the address FIFOs
            parts.append((name, streamer._popped_this_cycle, queued))
            for port in streamer.ports:
                parts.append(
                    (port.sink.occupancy, issued - port.delivered, len(port.pending))
                )
        parts.extend(
            (ready - now, tuple(port.name for port, _, _ in batch))
            for ready, batch in mem._in_flight
        )
        return tuple(parts)

    # ------------------------------------------------------------------
    # Boundary handling (called by AcceleratorSystem.steady_span).
    # ------------------------------------------------------------------
    def boundary(self, limit: int) -> int:
        """Record a completed-tile boundary; return a committed span size.

        A non-zero return means a plan is staged and the engine must call
        ``advance_active`` with exactly that many cycles next.
        """
        sys = self.system
        gemm = sys.gemm_core
        self.stats.boundaries += 1
        # Keep at least one tile for the per-cycle loop so the completion
        # cycle (and with it the final drain) is always stepped normally.
        tiles_remaining = gemm.job.output_tiles - gemm._tile_index - 1
        if tiles_remaining < MIN_PERIODS:
            self._history.clear()
            return 0
        if len(self._skip_groups) == MAX_GROUP:
            return 0  # every group retired, and only a jump un-retires them
        if self._slots is None:
            self._build_slots()
        now = sys._cycles
        signature = self._signature()
        snapshot = self._capture()
        grants = dict(sys.memory._last_grant)
        self._history.append((now, signature, snapshot, grants))
        for group in range(1, len(self._history)):
            if group in self._skip_groups:
                continue
            prev_cycle, prev_signature, prev_snapshot, prev_grants = (
                self._history[-1 - group]
            )
            if signature != prev_signature:
                continue
            period = now - prev_cycle
            if period <= 0 or limit < MIN_PERIODS * period:
                continue
            self.stats.attempts += 1
            delta = snapshot - prev_snapshot
            try:
                plan = self._prepare(
                    period, delta, limit, tiles_remaining, prev_grants, grants
                )
            except _Bail as bail:
                self.stats.bail(bail.reason)
                if bail.reason in ("bank_pattern", "bank_overlap"):
                    self._skip_groups.add(group)
                    if len(self._skip_groups) == MAX_GROUP:
                        self.stats.bail("retired")
                continue
            self._plan = plan
            return plan.cycles
        return 0

    def advance_active(self, cycles: int) -> None:
        """Commit the staged plan (the span returned by :meth:`boundary`)."""
        plan = self._plan
        self._plan = None
        if plan is None or plan.cycles != cycles:
            raise RuntimeError(
                f"advance_active({cycles}) without a matching staged plan"
            )
        self._commit(plan)
        # Roll the reference forward so the very next boundary can chain
        # another jump after re-observing just one period group.
        assert self._history
        _, signature, snapshot, _ = self._history[-1]
        self._history.clear()
        snapshot = snapshot + plan.delta * plan.periods
        grants = dict(self.system.memory._last_grant)
        self._history.append((plan.end_cycle, signature, snapshot, grants))
        self._skip_groups.clear()
        isolated = sum(span.isolated for span in plan.streams)
        self.stats.isolated_streams += isolated
        self.stats.tiled_streams += len(plan.streams) - isolated
        self.stats.jumps += 1
        self.stats.periods_replayed += plan.periods
        self.stats.cycles_skipped += plan.cycles

    # ------------------------------------------------------------------
    # Planning (read-only: any failure bails with nothing mutated).
    # ------------------------------------------------------------------
    def _delta(self, delta: np.ndarray, name: str) -> int:
        return int(delta[self._index[name]])

    def _prepare(
        self, period, delta, limit, tiles_remaining, prev_grants, grants
    ) -> _Plan:
        sys = self.system
        mem = sys.memory
        gemm = sys.gemm_core
        d = lambda name: self._delta(delta, name)

        group = d("gemm.tile")  # output tiles per period
        if group < 1 or d("gemm.mac") != group * gemm.job.tiles_k:
            raise _Bail("tile_cadence")
        if sys._program.uses_quantizer and d("quant.tiles") != group:
            raise _Bail("quantizer_cadence")

        # Every memory requester must belong to an active stream channel.
        active = {
            port for name in sys._active_ports for port in sys.streamers[name].ports
        }
        flights: Dict[MemoryPort, List[int]] = {}
        for ready, batch in mem._in_flight:
            for port, _, _ in batch:
                flights.setdefault(port, []).append(ready)
        for port in mem._requesters.values():
            if port not in active and (port.pending or port.responses or port in flights):
                raise _Bail("foreign_requester")

        rows = max(d(f"{port}.bundles") for port in sys._active_ports)
        periods = min(
            tiles_remaining // group, limit // period, MAX_ROWS // max(rows, 1)
        )
        if periods < MIN_PERIODS:
            raise _Bail("too_short")
        streams: List[_StreamSpan] = []
        for port in sys._active_ports:
            span = self._prepare_stream(port, delta, periods, flights)
            if span is not None:
                streams.append(span)
                available = span.streamer.agu.total_bundles - span.generated
                periods = min(periods, available // span.delta)
        if periods < MIN_PERIODS:
            raise _Bail("too_short")

        # Vectorized bank-pattern verification, reference period included:
        # an isolated stream's rows must each hit pairwise-distinct banks, any
        # other stream's schedule must tile the reference period exactly; the
        # first deviating row (e.g. a bank conflict breaking the steady state)
        # truncates the jump right before its period.
        def clip(span: _StreamSpan, periods: int) -> int:
            banks = span.banks
            if span.isolated:
                ordered = np.sort(banks, axis=1)
                good = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
                first = span.lo
            else:
                good = np.all(banks[span.delta :] == banks[: -span.delta], axis=1)
                first = span.lo + span.delta
            if good.all():
                return periods
            deviating = first + int(np.argmin(good))
            return min(periods, (deviating - span.generated) // span.delta)

        for span in streams:
            periods = clip(span, periods)
        if periods < MIN_PERIODS:
            raise _Bail("bank_pattern")

        # Isolation also needs footprints (reference period + span) shared
        # with nobody; a stream that shares a bank falls back to exact tiling.
        num_banks = mem.geometry.num_banks
        footprints = [
            np.bincount(
                span.banks[: span.generated + periods * span.delta - span.lo].ravel(),
                minlength=num_banks,
            ).astype(bool)
            for span in streams
        ]
        shared = np.sum(footprints, axis=0) > 1
        tiled = np.zeros(num_banks, dtype=bool)
        for span, footprint in zip(streams, footprints):
            if span.isolated and (footprint & shared).any():
                span.isolated = False
                periods = clip(span, periods)
            if not span.isolated:
                tiled |= footprint
        if periods < MIN_PERIODS:
            raise _Bail("bank_overlap")
        # Tiled streams arbitrate, so the rotating pointers on their banks
        # must repeat too (isolated and untouched banks never consult theirs).
        for bank in np.flatnonzero(tiled).tolist():
            if grants.get(bank) != prev_grants.get(bank):
                raise _Bail("arbiter_state")

        # Span accesses must commute: reads and writes disjoint, writes
        # unique, so one gather plus one scatter reproduces the per-cycle
        # access sequence regardless of intra-span ordering.
        depth = mem.geometry.bank_depth
        read_keys: List[np.ndarray] = []
        write_keys: List[np.ndarray] = []
        for span in streams:
            count = periods * span.delta
            for channel_span in span.channels:
                start = channel_span.granted - span.lo
                keys = (
                    span.banks[start : start + count, channel_span.column] * depth
                    + span.lines[start : start + count, channel_span.column]
                )
                (read_keys if span.is_read else write_keys).append(keys)
        if write_keys:
            writes = np.concatenate(write_keys)
            if np.unique(writes).size != writes.size:
                raise _Bail("write_collision")
            if read_keys and np.intersect1d(
                np.concatenate(read_keys), writes
            ).size:
                raise _Bail("read_write_overlap")

        self._verify_dataflow(streams, gemm, group)

        return _Plan(
            periods=periods,
            cycles=periods * period,
            end_cycle=sys._cycles + periods * period,
            delta=delta,
            streams=streams,
            tiles=periods * group,
        )

    def _prepare_stream(
        self, name: str, delta: np.ndarray, periods: int, flights
    ) -> Optional[_StreamSpan]:
        """Check one streamer's uniform cadence and build its address span.

        ``flights`` holds the ready cycles of each port's in-flight responses.
        """
        sys = self.system
        mem = sys.memory
        streamer = sys.streamers[name]
        d = lambda key: self._delta(delta, key)
        bundles = d(f"{name}.bundles")
        words = d(f"{name}.words")
        agu = streamer.agu
        if agu is None or agu.bundles_generated != streamer.bundles_generated:
            raise _Bail("agu_desync")

        issued = streamer.requests_issued
        popped = streamer.words_streamed
        if bundles == 0:
            if words or d(f"{name}.issued"):
                raise _Bail("quiescent_drift")
        elif d(f"{name}.issued") != bundles or words != bundles:
            raise _Bail("ragged_cadence")
        channels: List[_ChannelSpan] = []
        # Isolation candidate: never contended in the reference period, and
        # every channel granted as far with the same response timings.
        contended = False
        skews = set()
        for column, port in enumerate(streamer.ports):
            rid = port.name
            granted = port.granted
            delivered = port.delivered
            moved = (d(f"{rid}.granted"), d(f"{rid}.delivered"))
            if bundles == 0:
                if any(moved):
                    raise _Bail("quiescent_drift")
                if issued != delivered:
                    # A frozen channel with traffic in the memory pipeline
                    # cannot stay frozen for a whole span.
                    raise _Bail("quiescent_traffic")
                continue
            if moved != (bundles, bundles):
                raise _Bail("ragged_cadence")
            flying = flights.get(port, [])
            contended = contended or d(f"{rid}.retries") != 0
            skews.add((granted, delivered, tuple(flying)))
            buffered = delivered - popped if streamer.is_read else popped - issued
            if (
                len(port.pending) != issued - granted
                or len(flying) != granted - delivered
                or port.sink.occupancy != buffered
            ):
                raise _Bail("window_mismatch")
            channels.append(_ChannelSpan(port, column, granted, delivered))

        if bundles == 0:
            return None
        # One period back: the matrix covers the reference period's grants too.
        lo = min(span.granted for span in channels) - bundles
        hi = min(
            streamer.bundles_generated + periods * bundles, agu.total_bundles
        )
        matrix = agu.address_matrix(lo, hi - lo, streamer.active_channels)
        banks, lines, offsets = streamer.remapper.decode_batch(matrix)
        return _StreamSpan(
            streamer=streamer,
            is_read=streamer.is_read,
            delta=bundles,
            generated=streamer.bundles_generated,
            issued=issued,
            words=popped,
            lo=lo,
            matrix=matrix,
            banks=banks,
            lines=lines,
            offsets=offsets,
            channels=channels,
            isolated=not contended and len(skews) == 1,
        )

    def _verify_dataflow(
        self, streams: List[_StreamSpan], gemm, group: int
    ) -> None:
        """The moving streams must be exactly the GeMM/quantizer dataflow."""
        sys = self.system
        job = gemm.job
        tile = gemm._tile_index
        rate = group * job.tiles_k
        consumers = {}
        if gemm.a_stream is not None:
            consumers[id(gemm.a_stream)] = ("a", rate, tile * job.tiles_k)
        if gemm.b_stream is not None:
            consumers[id(gemm.b_stream)] = ("b", rate, tile * job.tiles_k)
        if job.use_init_stream and gemm.c_stream is not None:
            consumers[id(gemm.c_stream)] = ("c", group, tile)
        if gemm.a_stream is gemm.b_stream:
            raise _Bail("shared_operand_stream")
        if sys._program.uses_quantizer:
            quantizer = sys.quantizer
            processed = quantizer.tiles_processed
            if quantizer._pending.occupancy != tile - processed:
                raise _Bail("quantizer_window")
            sink = quantizer.output_sink
            sink_base = processed
        else:
            sink = gemm.output_sink
            sink_base = tile
        seen_reads = set()
        write_spans = 0
        for span in streams:
            if span.is_read:
                entry = consumers.get(id(span.streamer))
                if entry is None:
                    raise _Bail("unconsumed_read_stream")
                _, stream_rate, base = entry
                if (
                    span.delta != stream_rate
                    or span.streamer.words_streamed != base
                ):
                    raise _Bail("operand_phase")
                seen_reads.add(id(span.streamer))
            else:
                write_spans += 1
                if span.streamer is not sink:
                    raise _Bail("unfed_write_stream")
                if (
                    span.delta != group
                    or span.streamer.words_streamed != sink_base
                ):
                    raise _Bail("sink_phase")
        # The replayer indexes operands/sink by these streams: every GeMM
        # consumer must be moving, and exactly one write span feeds memory.
        if seen_reads != set(consumers) or write_spans != 1:
            raise _Bail("dataflow_incomplete")

    # ------------------------------------------------------------------
    # Replay (mutating; all preconditions already verified).
    # ------------------------------------------------------------------
    def _commit(self, plan: _Plan) -> None:
        sys = self.system
        mem = sys.memory
        gemm = sys.gemm_core
        periods = plan.periods
        shift_cycles = plan.cycles
        stacked = mem.scratchpad.stacked_words()

        # 1. Assemble every read channel's word stream: the words currently
        #    queued in its pipeline followed by everything the span's grants
        #    will read — one gather over the stacked scratchpad per channel.
        combined: Dict[str, np.ndarray] = {}
        width = mem.geometry.bank_width_bytes
        for span in plan.streams:
            if not span.is_read:
                continue
            count = periods * span.delta
            for channel_span in span.channels:
                port = channel_span.port
                existing: List[np.ndarray] = port.sink.snapshot()
                existing.extend(
                    data for _, batch in mem._in_flight for owner, data, _ in batch
                    if owner is port
                )
                start = channel_span.granted - span.lo
                gathered = stacked[
                    span.banks[start : start + count, channel_span.column],
                    span.lines[start : start + count, channel_span.column],
                ]
                stackable = (
                    np.stack([np.frombuffer(word, np.uint8) for word in existing])
                    if existing
                    else np.empty((0, width), dtype=np.uint8)
                )
                combined[port.name] = np.concatenate([stackable, gathered])

        # 2. Collapse all MAC steps of all replayed tiles into one einsum.
        operands: Dict[int, np.ndarray] = {}
        for span in plan.streams:
            if not span.is_read:
                continue
            pops = periods * span.delta
            wide = np.concatenate(
                [
                    combined[channel_span.port.name][:pops]
                    for channel_span in span.channels
                ],
                axis=1,
            )
            operands[id(span.streamer)] = span.streamer.extensions.apply_batch(
                wide
            )
        a_words = operands[id(gemm.a_stream)]
        b_words = operands[id(gemm.b_stream)]
        c_words = (
            operands[id(gemm.c_stream)]
            if gemm.job.use_init_stream and gemm.c_stream is not None
            else None
        )
        tiles_out = plan.tiles
        out_bytes = gemm.compute_tiles_batch(tiles_out, a_words, b_words, c_words)

        # 3. Route the produced tiles through the sink chain.
        if sys._program.uses_quantizer:
            from ..accelerators.quantizer import rescale_tile_batch

            quantizer = sys.quantizer
            pending: List[np.ndarray] = quantizer._pending.snapshot()
            raw = np.concatenate(
                [
                    np.stack(pending)
                    if pending
                    else np.empty((0, out_bytes.shape[1]), dtype=np.uint8),
                    out_bytes,
                ]
            )
            tiles = (
                np.ascontiguousarray(raw[:tiles_out])
                .view(np.int32)
                .reshape(tiles_out, quantizer.rows, quantizer.cols)
            )
            rescaled = rescale_tile_batch(tiles, quantizer.config)
            sink_raw = (
                np.ascontiguousarray(rescaled)
                .view(np.uint8)
                .reshape(tiles_out, -1)
            )
            quantizer._pending.replace_entries(list(raw[tiles_out:]))
        else:
            sink_raw = out_bytes
        sink_span = next(span for span in plan.streams if not span.is_read)
        sink_words = sink_span.streamer.extensions.apply_batch(sink_raw)
        for channel_span in sink_span.channels:
            port = channel_span.port
            existing = [data for _, _, data, _ in port.pending]
            existing.extend(port.sink.snapshot())
            slice_ = sink_words[
                :, channel_span.column * width : (channel_span.column + 1) * width
            ]
            stackable = (
                np.stack([np.frombuffer(word, np.uint8) for word in existing])
                if existing
                else np.empty((0, width), dtype=np.uint8)
            )
            combined[port.name] = np.concatenate([stackable, slice_])

        # 4. Scatter the span's writes (one assignment per touched bank).
        for span in plan.streams:
            if span.is_read:
                continue
            count = periods * span.delta
            for channel_span in span.channels:
                start = channel_span.granted - span.lo
                mem.scratchpad.scatter_words(
                    span.banks[start : start + count, channel_span.column],
                    span.lines[start : start + count, channel_span.column],
                    combined[channel_span.port.name][:count],
                )

        # 5. Advance every scalar counter by r x its per-period delta and
        #    fast-forward the AGUs.  Per-bank state follows the span's banks,
        #    which may rotate: access counts are a histogram of the grants,
        #    and an isolated stream leaves each bank pointing at the last
        #    channel it granted there (tiled banks' pointers were verified
        #    periodic: they already hold their final value).
        self._apply_delta(plan.delta, periods)
        for span in plan.streams:
            count = periods * span.delta
            span.streamer.agu.fast_forward(count)
            granted = [
                span.banks[c.granted - span.lo :, c.column][:count]
                for c in span.channels
            ]
            histogram = np.bincount(np.concatenate(granted)).tolist()
            for bank, accesses in zip(mem.scratchpad.banks, histogram):
                if span.is_read:
                    bank.read_count += accesses
                else:
                    bank.write_count += accesses
            if span.isolated:
                # Skew-free, so ``granted`` stacks into whole rows granted in
                # order: a bank's last grant is its last row-major occurrence.
                order = np.stack(granted, axis=1).ravel()[::-1]
                touched, last = np.unique(order, return_index=True)
                columns = (order.size - 1 - last) % len(granted)
                for bank, column in zip(touched.tolist(), columns.tolist()):
                    mem._last_grant[bank] = span.channels[column].port.name

        # 6. Rebuild every queue as its position-shifted image.  A word's
        #    step is arithmetic — pending ``[granted, issued)``, in flight
        #    ``[delivered, granted)`` — so pending words come from the span's
        #    rows and each in-flight batch moves ``shift_cycles`` on with its
        #    reads' words replaced.  (The address FIFOs moved with counters.)
        flying: Dict[MemoryPort, Iterator] = {}
        for span in plan.streams:
            shift = periods * span.delta
            for channel_span in span.channels:
                port = channel_span.port
                column = channel_span.column
                stream = combined[port.name]
                base = span.words if span.is_read else channel_span.granted
                rows = slice(
                    channel_span.granted + shift - span.lo,
                    span.issued + shift - span.lo,
                )
                port.pending = deque(
                    zip(
                        span.banks[rows, column].tolist(),
                        span.lines[rows, column].tolist(),
                        repeat(None) if span.is_read else stream[shift:],
                        repeat(None),
                    )
                )
                flying[port] = (
                    iter(stream[channel_span.delivered + shift - base :])
                    if span.is_read
                    else repeat(None)
                )
                # Data FIFO: words [popped, delivered) / [issued, pushed).
                first, last = (
                    (span.words, channel_span.delivered)
                    if span.is_read
                    else (span.issued, span.words)
                )
                port.sink.replace_entries(
                    stream[position - base]
                    for position in range(first + shift, last + shift)
                )
        mem._in_flight = deque(
            (ready + shift_cycles, [(p, next(flying[p]), None) for p, _, _ in batch])
            for ready, batch in mem._in_flight
        )
