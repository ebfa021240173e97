"""Macro-stepping of *active* steady-state spans: the planner.

At a completed-tile boundary the planner finds a period the schedule repeats,
verifies that the addresses ahead cannot change who contends with whom, and
replays whole periods at once, bit-identical to the lockstep engine.  The
memory, the streamers, the GeMM core and the quantizer each state their own
part — counters, signature, checks and replay; the planner owns the boundary
history, the bank-pattern verification and the order of the replay.  See
``docs/ENGINE.md``, "The steady-span protocol".
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..memory.subsystem import bank_masks
from ..sim.result import SteadyBail

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


def footprint(masks: np.ndarray) -> int:
    """The banks that rows of :func:`bank_masks` name, as one int bitmask."""
    words = np.bitwise_or.reduce(masks, axis=0).tolist()
    return sum(word << 64 * index for index, word in enumerate(words))


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
    #: What ended each ``too_short`` bail: ``tiles``, ``cycle_limit``,
    #: ``max_rows`` or ``stream_end``.
    short_bounds: Dict[str, int] = field(default_factory=dict)

    def bail(self, reason: str, bound: Optional[str] = None) -> None:
        self.bails[reason] = self.bails.get(reason, 0) + 1
        if bound is not None:
            self.short_bounds[bound] = self.short_bounds.get(bound, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class _Plan:
    """A verified steady span, ready to commit."""

    period: int
    periods: int
    delta: List[int]
    streams: list  # the moving streamers' StreamSpans
    #: ``MAX_ROWS`` alone bounded the periods, so the same steady run goes
    #: on past the span: the next plan chains at its end.
    capped: bool
    #: The counters that move, as ``(object, attribute, step)``: what the
    #: commit advances by ``periods`` steps.
    moves: list
    group: int = 0  # boundary records per period

    @property
    def cycles(self) -> int:
        return self.periods * self.period


class SteadySpanPlanner:
    """Detects, verifies and replays periodic steady-state spans.

    One planner serves one loaded program (the system creates it at the
    first boundary) over its units: the memory, the GeMM core, the
    quantizer when the program uses it, and the program's streamers.  It
    holds them, never the system, so a finished system is freed with its
    last reference.
    """

    def __init__(self, memory, gemm, streamers, quantizer=None) -> None:
        self.memory = memory
        self.gemm = gemm
        self.quantizer = quantizer
        self.streamers = streamers
        self.units = [memory, gemm, *streamers]
        if quantizer is not None:
            self.units.append(quantizer)
        self.stats = SteadySpanStats()
        #: Every unit's period counters as (object, attribute) pairs, and
        #: each unit's slice of them; read at the first boundary.
        self._slots: Optional[list] = None
        self._parts: Dict[object, slice] = {}
        self._plan: Optional[_Plan] = None
        #: Rolling (cycle, signature, snapshot, grant pointers) boundary records.
        self._history: deque = deque(maxlen=MAX_GROUP + 1)
        #: Group sizes whose bank pattern failed to verify (retired until the
        #: next successful jump — the failure is usually persistent).
        self._skip_groups: set = set()
        #: The last jump's end cycle, and for a capped jump the (group,
        #: period, delta, grant pointers one period back and now) a plan
        #: chains with there.
        self._jump_end: Optional[tuple] = None

    def _layout(self) -> None:
        slots: list = []
        for unit in self.units:
            counters = unit.period_counters()
            self._parts[unit] = slice(len(slots), len(slots) + len(counters))
            slots += counters
        self._slots = slots

    # ------------------------------------------------------------------
    # Boundary handling (called by AcceleratorSystem.steady_span).
    # ------------------------------------------------------------------
    def boundary(self, limit: int) -> int:
        """Record a completed-tile boundary; return a committed span size.

        A non-zero return means a plan is staged and the engine must call
        ``advance_active`` with exactly that many cycles next.  Called again
        at the end of a jump that ``MAX_ROWS`` capped, it plans the next
        span from the committed period without recording a boundary.
        """
        gemm = self.gemm
        # Keep at least one tile for the per-cycle loop so the completion
        # cycle (and with it the final drain) is always stepped normally.
        tiles_remaining = gemm.job.output_tiles - gemm.tiles_completed - 1
        jump_end, self._jump_end = self._jump_end, None
        if jump_end is not None and jump_end[0] == self.memory.cycle:
            chain = jump_end[1]
            if chain is None:
                return 0
            group, period, delta, prev_grants, grants = chain
            if tiles_remaining < MIN_PERIODS or limit < MIN_PERIODS * period:
                return 0
            return self._attempt(
                group, period, delta, limit, tiles_remaining, prev_grants, grants
            )
        self.stats.boundaries += 1
        if tiles_remaining < MIN_PERIODS:
            self._history.clear()
            return 0
        if len(self._skip_groups) == MAX_GROUP:
            return 0  # every group retired, and only a jump un-retires them
        if self._slots is None:
            self._layout()
        now = self.memory.cycle
        signature = [unit.period_signature() for unit in self.units]
        snapshot = [getattr(obj, attribute) for obj, attribute in self._slots]
        grants = self.memory.grant_pointers()
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
            delta = [value - prev for value, prev in zip(snapshot, prev_snapshot)]
            cycles = self._attempt(
                group, period, delta, limit, tiles_remaining, prev_grants, grants
            )
            if cycles:
                return cycles
        return 0

    def _attempt(
        self, group, period, delta, limit, tiles_remaining, prev_grants, grants
    ) -> int:
        """Plan one candidate period and stage it; ``0`` when it bails."""
        self.stats.attempts += 1
        try:
            plan = self._prepare(
                period, delta, limit, tiles_remaining, prev_grants, grants
            )
        except SteadyBail as bail:
            self.stats.bail(*bail.args)
            if bail.args[0] in ("bank_pattern", "bank_overlap"):
                self._skip_groups.add(group)
                if len(self._skip_groups) == MAX_GROUP:
                    self.stats.bail("retired")
            return 0
        plan.group = group
        self._plan = plan
        return plan.cycles

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
        # another jump after re-observing just one period group — unless a
        # stream's AGU ran out: its address FIFO then holds fewer bundles
        # than the reference's signature says.
        assert self._history
        _, signature, snapshot, _ = self._history[-1]
        self._history.clear()
        now = self.memory.cycle
        self._jump_end = (now, None)
        if not any(span.runs_out(plan.periods) for span in plan.streams):
            snapshot = [
                v + step * plan.periods for v, step in zip(snapshot, plan.delta)
            ]
            grants = self.memory.grant_pointers()
            self._history.append((now, signature, snapshot, grants))
            if plan.capped:
                # The run goes on: plan the next span right here, against
                # the pointers one period back.  Tiled banks repeat theirs
                # every period; a bank an isolated stream granted in the
                # last period is left out, so it reads as differing.
                prev_grants = dict(grants)
                for span in plan.streams:
                    if span.isolated:
                        last = np.bincount(span.grants[0][-span.delta :].ravel())
                        for bank in last.nonzero()[0].tolist():
                            prev_grants.pop(bank, None)
                chain = (plan.group, plan.period, plan.delta, prev_grants, grants)
                self._jump_end = (now, chain)
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
    def _prepare(
        self, period, delta, limit, tiles_remaining, prev_grants, grants
    ) -> _Plan:
        memory, gemm, quantizer = self.memory, self.gemm, self.quantizer
        part = {unit: delta[where] for unit, where in self._parts.items()}
        group = gemm.period_tiles(part[gemm])  # output tiles per period
        if quantizer is not None:
            quantizer.check_period(part[quantizer], group)
        flights = memory.period_flights(
            {port for streamer in self.streamers for port in streamer.ports}
        )

        rows = max([unit.period_rows(part[unit]) for unit in self.streamers])
        bounds = {
            "tiles": tiles_remaining // group,
            "cycle_limit": limit // period,
            "max_rows": MAX_ROWS // max(rows, 1),
        }
        bound = min(bounds, key=bounds.get)
        periods = bounds[bound]
        if periods < MIN_PERIODS:
            raise SteadyBail("too_short", bound)
        # A moving stream bounds the span by the issues it has left; its AGU
        # may run out inside the span (see DataMaestro.plan_span).
        streams = []
        for streamer in self.streamers:
            span = streamer.plan_span(part[streamer], periods, flights)
            if span is not None:
                streams.append(span)
                periods = min(periods, span.periods_left)
        if periods < MIN_PERIODS:
            raise SteadyBail("too_short", "stream_end")

        # Vectorized bank-pattern verification, reference period included:
        # an isolated stream's rows must each hit pairwise-distinct banks, any
        # other stream's schedule must tile the reference period exactly; the
        # first deviating row (e.g. a bank conflict breaking the steady state)
        # truncates the jump right before its period.
        num_banks = memory.geometry.num_banks
        masks = [bank_masks(span.banks, num_banks) for span in streams]

        def clip(span, mask, periods: int) -> int:
            banks = span.banks
            if span.isolated:
                good = np.bitwise_count(mask).sum(axis=1) == banks.shape[1]
                first = span.lo
            else:
                good = np.all(banks[span.delta :] == banks[: -span.delta], axis=1)
                first = span.lo + span.delta
            if good.all():
                return periods
            deviating = first + int(np.argmin(good))
            return min(periods, (deviating - span.generated) // span.delta)

        for span, mask in zip(streams, masks):
            span.masks = mask
            periods = clip(span, mask, periods)
        if periods < MIN_PERIODS:
            raise SteadyBail("bank_pattern")

        # Isolation also needs footprints (reference period + span) shared
        # with nobody; a stream that shares a bank falls back to exact tiling.
        footprints = [
            footprint(mask[: span.generated + periods * span.delta - span.lo])
            for span, mask in zip(streams, masks)
        ]
        seen = shared = tiled = 0
        for bits in footprints:
            shared |= seen & bits
            seen |= bits
        for span, mask, bits in zip(streams, masks, footprints):
            if span.isolated and bits & shared:
                span.isolated = False
                periods = clip(span, mask, periods)
            if not span.isolated:
                tiled |= bits
        if periods < MIN_PERIODS:
            raise SteadyBail("bank_overlap")
        # Tiled streams arbitrate, so the rotating pointers on their banks
        # must repeat too (isolated and untouched banks never consult theirs).
        for bank in range(tiled.bit_length()):
            if tiled >> bank & 1 and grants.get(bank) != prev_grants.get(bank):
                raise SteadyBail("arbiter_state")

        # Span accesses must commute: reads and writes disjoint, writes
        # unique, so one gather plus one scatter reproduces the per-cycle
        # access sequence regardless of intra-span ordering.  One count of
        # the written words, as long as the largest word read where a write
        # may land, decides both: a stream that reads only banks outside
        # every written footprint cannot overlap a write.  Each span keeps
        # its grant rows for the replay.
        depth = memory.geometry.bank_depth
        written = 0
        for span, bits in zip(streams, footprints):
            banks, lines = span.rows(periods * span.delta)
            span.grants = banks, banks * depth + lines
            if not span.streamer.is_read:
                written |= bits
        if written:
            writes = [span.grants[1] for span in streams if not span.streamer.is_read]
            reads = [
                span.grants[1]
                for span, bits in zip(streams, footprints)
                if span.streamer.is_read and bits & written
            ]
            largest = max([keys.max() for keys in reads], default=0)
            counts = np.bincount(
                np.concatenate(writes, axis=None), minlength=largest + 1
            )
            if counts.max() > 1:
                raise SteadyBail("write_collision")
            if any(counts[keys].any() for keys in reads):
                raise SteadyBail("read_write_overlap")

        # The moving streams must be exactly the GeMM/quantizer dataflow: the
        # replay indexes the operands and the sink by them.
        consumers = gemm.period_consumers(group)
        tile = gemm.tiles_completed
        if quantizer is not None:
            sink, sink_base = quantizer.period_sink(tile)
        else:
            sink, sink_base = gemm.output_sink, tile
        seen_reads = set()
        write_spans = 0
        for span in streams:
            streamer = span.streamer
            if streamer.is_read:
                if streamer not in consumers:
                    raise SteadyBail("unconsumed_read_stream")
                if (span.delta, streamer.words_streamed) != consumers[streamer]:
                    raise SteadyBail("operand_phase")
                seen_reads.add(streamer)
            else:
                write_spans += 1
                if streamer is not sink:
                    raise SteadyBail("unfed_write_stream")
                if span.delta != group or streamer.words_streamed != sink_base:
                    raise SteadyBail("sink_phase")
        # Every GeMM consumer must be moving, and exactly one write span
        # feeds memory.
        if seen_reads != set(consumers) or write_spans != 1:
            raise SteadyBail("dataflow_incomplete")
        capped = bound == "max_rows" and periods == bounds[bound]
        moves = [
            (obj, attribute, step)
            for (obj, attribute), step in zip(self._slots, delta)
            if step
        ]
        return _Plan(period, periods, delta, streams, capped, moves)

    # ------------------------------------------------------------------
    # Replay (mutating; all preconditions already verified).
    # ------------------------------------------------------------------
    def _commit(self, plan: _Plan) -> None:
        """Each streamer replays its words and rows — the reads first, so
        they gather before the sink's scatter (the two are disjoint anyway)
        — all MAC steps of all tiles collapse into one batched matmul, the
        quantizer rescales the tile stack, the memory moves its in-flight
        entries, and last each counter that moves advances by ``periods`` x
        its per-period delta (the replays read the boundary's positions)."""
        memory, gemm, periods = self.memory, self.gemm, plan.periods
        popped, rows = {}, {}
        for span in plan.streams:
            rows[span.streamer] = span.delta * periods
            if span.streamer.is_read:
                popped[span.streamer] = span.streamer.replay_span(span, periods, memory)
        sink = next(span for span in plan.streams if not span.streamer.is_read)
        produced = gemm.compute_tiles_batch(
            periods * sink.delta,
            popped[gemm.a_stream],
            popped[gemm.b_stream],
            popped.get(gemm.c_stream),
        )
        if self.quantizer is not None:
            produced = self.quantizer.replay_tiles(produced)
        sink.streamer.replay_span(sink, periods, memory, produced)
        memory.replay_in_flight(plan.cycles, rows)
        for obj, attribute, step in plan.moves:
            setattr(obj, attribute, getattr(obj, attribute) + step * periods)
