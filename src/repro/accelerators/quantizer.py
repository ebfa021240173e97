"""Quantization accelerator: ``E_8 = Rescale(D_32)`` (paper §IV-A, Fig. 6).

The quantizer post-processes the int32 accumulator tiles produced by the
GeMM core into int8 activations using the standard fixed-point requantization
scheme: multiply by an integer multiplier, arithmetic-shift right with
rounding, add the output zero point and saturate to the int8 range.  The
multiplier/shift can be scalar or per output channel (per column of the
tile), which is exactly the case where the Broadcaster extension pays off —
the per-channel parameters are small vectors that would otherwise have to be
duplicated across PE rows in memory.

The quantizer exposes the same sink interface as a write-mode DataMaestro
(:meth:`input_ready` / :meth:`push_input`) so the GeMM core can be routed to
either destination, and it forwards its int8 output words to the write-mode
DataMaestro *E*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..sim.fifo import Fifo
from ..sim.result import SteadyBail
from ..utils.packing import bytes_to_tile, tile_to_bytes
from .gemm_core import StreamSink


@dataclass(frozen=True)
class QuantizationConfig:
    """Runtime configuration of the rescale operation."""

    multiplier: Union[int, np.ndarray] = 1
    shift: int = 0
    zero_point: int = 0

    def __post_init__(self) -> None:
        if self.shift < 0 or self.shift > 31:
            raise ValueError("shift must be within [0, 31]")
        if not -128 <= self.zero_point <= 127:
            raise ValueError("zero_point must fit in int8")


def rescale_tile(tile: np.ndarray, config: QuantizationConfig) -> np.ndarray:
    """Requantize an int32 tile to int8 (rounding, zero point, saturation).

    Delegates to :func:`rescale_tile_batch` so the per-cycle quantizer and
    the macro-step fast path share one arithmetic implementation — the bit
    parity between them can never drift.
    """
    return rescale_tile_batch(tile[np.newaxis, :, :], config)[0]


def rescale_tile_batch(
    tiles: np.ndarray, config: QuantizationConfig
) -> np.ndarray:
    """Requantize a ``(n, rows, cols)`` int32 tile stack in one pass.

    The single arithmetic implementation behind both :func:`rescale_tile`
    (per-cycle quantizer) and the macro-step fast path, which rescales a
    whole span's tiles at once.
    """
    accumulator = tiles.astype(np.int64)
    multiplier = np.asarray(config.multiplier, dtype=np.int64)
    if multiplier.ndim == 1:
        if multiplier.size != tiles.shape[2]:
            raise ValueError(
                f"per-channel multiplier has {multiplier.size} entries, "
                f"tile has {tiles.shape[2]} output channels"
            )
        scaled = accumulator * multiplier[np.newaxis, np.newaxis, :]
    else:
        scaled = accumulator * multiplier
    if config.shift > 0:
        rounding = np.int64(1) << (config.shift - 1)
        scaled = (scaled + rounding) >> config.shift
    shifted = scaled + config.zero_point
    return np.clip(shifted, -128, 127).astype(np.int8)


class Quantizer:
    """Cycle-level quantization accelerator."""

    def __init__(self, rows: int = 8, cols: int = 8, queue_depth: int = 2) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("tile dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.config = QuantizationConfig()
        self.output_sink: Optional[StreamSink] = None
        self._pending: Fifo[np.ndarray] = Fifo(queue_depth, name="quantizer.pending")
        self.tiles_processed = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    def bind(self, output_sink: StreamSink) -> None:
        """Connect the quantizer output to its write-mode DataMaestro."""
        self.output_sink = output_sink

    def configure(self, config: QuantizationConfig) -> None:
        self.config = config
        self._pending.clear()
        self.tiles_processed = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    # Sink interface used by the GeMM core.
    # ------------------------------------------------------------------
    def input_ready(self) -> bool:
        return not self._pending.is_full

    def push_input(self, word: np.ndarray) -> None:
        if self._pending.is_full:
            raise RuntimeError("quantizer accepted a word while not ready")
        self._pending.push(np.asarray(word, dtype=np.uint8))

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return not self._pending.is_empty

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """``now`` when a pending tile can be rescaled, else ``None``."""
        if self.busy and self.output_sink is not None and self.output_sink.input_ready():
            return now
        return None

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` skipped cycles to the stall counter."""
        if self.busy:
            self.stall_cycles += cycles

    # ------------------------------------------------------------------
    # Steady-span protocol (see repro.engine.steady).
    # ------------------------------------------------------------------
    def period_counters(self) -> list:
        """What a steady period advances: tiles, stalls and the queue's
        pushes and pops."""
        queue = self._pending
        return [
            (self, "tiles_processed"),
            (self, "stall_cycles"),
            (queue, "total_pushes"),
            (queue, "total_pops"),
        ]

    def period_signature(self) -> int:
        return len(self._pending.entries)

    def check_period(self, delta: list, tiles: int) -> None:
        """Bail unless a steady period of ``tiles`` core tiles rescaled as
        many (``delta`` is :meth:`period_counters`' change over one)."""
        if delta[0] != tiles:
            raise SteadyBail("quantizer_cadence")

    def period_sink(self, tiles_in: int):
        """The stream this quantizer feeds and the words pushed into it by
        now; bails unless the queue holds exactly the tiles in between."""
        if len(self._pending.entries) != tiles_in - self.tiles_processed:
            raise SteadyBail("quantizer_window")
        return self.output_sink, self.tiles_processed

    def replay_tiles(self, produced: np.ndarray) -> np.ndarray:
        """Rescale a steady span's tiles as :meth:`step` would: the queued
        tiles, then ``produced`` (the core's byte images, one row per tile),
        of which as many as were queued stay queued.  Returns the span's
        output words, one row each."""
        count = len(produced)
        raw = np.vstack([*self._pending.entries, produced])
        tiles = raw[:count].view(np.int32).reshape(count, self.rows, self.cols)
        self._pending.replace_entries(list(raw[count:]))
        rescaled = rescale_tile_batch(tiles, self.config)
        return rescaled.view(np.uint8).reshape(count, -1)

    def step(self) -> bool:
        """Requantize one pending tile if the output streamer can accept it."""
        if self._pending.is_empty:
            return False
        if self.output_sink is None:
            raise RuntimeError("quantizer stepped before bind()")
        if not self.output_sink.input_ready():
            self.stall_cycles += 1
            return False
        word = self._pending.pop()
        tile = bytes_to_tile(word, (self.rows, self.cols), np.int32)
        quantized = rescale_tile(tile, self.config)
        self.output_sink.push_input(tile_to_bytes(quantized))
        self.tiles_processed += 1
        return True

    def statistics(self) -> dict:
        return {
            "tiles_processed": self.tiles_processed,
            "stall_cycles": self.stall_cycles,
        }
