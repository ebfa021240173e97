"""Tensor-Core-like GeMM accelerator datapath (paper §IV-A, Fig. 6).

The GeMM core is a 3-D ``Mu × Nu × Ku`` MAC array that executes
``D_32 = A_8 ⊗ B_8 + C_32``: every cycle it consumes one ``Mu × Ku`` int8
tile of A and one ``Ku × Nu`` int8 tile of B, and accumulates into a local
``Mu × Nu`` int32 tile.  At the first reduction step of an output tile the
accumulator is initialised from the C stream (or zero); after the last
reduction step the accumulated tile is pushed to the output sink — either a
write-mode DataMaestro or the quantization accelerator.

Whether the tiles represent a plain GeMM, a transposed GeMM or an
(implicitly im2col-ed) convolution is entirely determined by how the
DataMaestros are programmed; the core itself is workload agnostic, exactly as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from ..utils.packing import bytes_to_tile, tile_to_bytes


class StreamSource(Protocol):
    """Read-side interface the core expects (provided by DataMaestro)."""

    def output_valid(self) -> bool: ...

    def pop_output(self) -> np.ndarray: ...


class StreamSink(Protocol):
    """Write-side interface the core expects (DataMaestro or Quantizer)."""

    def input_ready(self) -> bool: ...

    def push_input(self, word: np.ndarray) -> None: ...


@dataclass(frozen=True)
class GemmJob:
    """One kernel launch for the GeMM core (all sizes in tiles).

    ``tiles_m``/``tiles_n`` span the output, ``tiles_k`` is the reduction
    depth per output tile.  ``use_init_stream`` selects whether the
    accumulator is initialised from the C stream (bias / partial sums) or
    from zero.
    """

    tiles_m: int
    tiles_n: int
    tiles_k: int
    use_init_stream: bool = True

    def __post_init__(self) -> None:
        if self.tiles_m <= 0 or self.tiles_n <= 0 or self.tiles_k <= 0:
            raise ValueError("tile counts must be positive")

    @property
    def output_tiles(self) -> int:
        return self.tiles_m * self.tiles_n

    @property
    def ideal_compute_cycles(self) -> int:
        """Cycles needed with one MAC step per cycle and no stalls."""
        return self.tiles_m * self.tiles_n * self.tiles_k


class GemmCore:
    """Cycle-level model of the ``Mu × Nu × Ku`` int8/int32 MAC array."""

    def __init__(self, mu: int = 8, nu: int = 8, ku: int = 8) -> None:
        if mu <= 0 or nu <= 0 or ku <= 0:
            raise ValueError("PE array dimensions must be positive")
        self.mu = int(mu)
        self.nu = int(nu)
        self.ku = int(ku)
        self.a_stream: Optional[StreamSource] = None
        self.b_stream: Optional[StreamSource] = None
        self.c_stream: Optional[StreamSource] = None
        self.output_sink: Optional[StreamSink] = None
        self.job: Optional[GemmJob] = None
        self._tile_index = 0
        self._k_index = 0
        self._accumulator = np.zeros((self.mu, self.nu), dtype=np.int32)
        self.mac_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Number of MAC units in the array."""
        return self.mu * self.nu * self.ku

    @property
    def a_word_bytes(self) -> int:
        return self.mu * self.ku

    @property
    def b_word_bytes(self) -> int:
        return self.ku * self.nu

    @property
    def acc_word_bytes(self) -> int:
        return self.mu * self.nu * 4

    # ------------------------------------------------------------------
    def bind(
        self,
        a_stream: StreamSource,
        b_stream: StreamSource,
        output_sink: StreamSink,
        c_stream: Optional[StreamSource] = None,
    ) -> None:
        """Connect the core's ports to its streaming engines."""
        self.a_stream = a_stream
        self.b_stream = b_stream
        self.c_stream = c_stream
        self.output_sink = output_sink

    def configure(self, job: GemmJob) -> None:
        """Prepare the core for one kernel launch."""
        if job.use_init_stream and self.c_stream is None:
            raise ValueError("job requests an init stream but none is bound")
        self.job = job
        self._tile_index = 0
        self._k_index = 0
        self._accumulator = np.zeros((self.mu, self.nu), dtype=np.int32)
        self.mac_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.job is not None and self._tile_index >= self.job.output_tiles

    @property
    def busy(self) -> bool:
        return self.job is not None and not self.done

    @property
    def progress(self) -> float:
        if self.job is None:
            return 0.0
        total = self.job.ideal_compute_cycles
        completed = self._tile_index * self.job.tiles_k + self._k_index
        return completed / total if total else 1.0

    # ------------------------------------------------------------------
    def _inputs_available(self) -> bool:
        assert self.job is not None
        if self.a_stream is None or self.b_stream is None:
            raise RuntimeError("GeMM core stepped before bind()")
        if not self.a_stream.output_valid():
            return False
        if not self.b_stream.output_valid():
            return False
        needs_init = self.job.use_init_stream and self._k_index == 0
        if needs_init and not self.c_stream.output_valid():
            return False
        produces_output = self._k_index == self.job.tiles_k - 1
        if produces_output:
            if self.output_sink is None:
                raise RuntimeError("GeMM core has no output sink bound")
            if not self.output_sink.input_ready():
                return False
        return True

    def can_fire(self) -> bool:
        """Whether a MAC step would fire this cycle (operands + sink ready)."""
        return self.busy and self._inputs_available()

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """``now`` while a MAC burst can continue, else ``None``.

        The core is purely data-driven: when it cannot fire it is waiting on
        a streamer word or on sink back-pressure, and the component that
        resolves the wait reports the wake-up event.
        """
        return now if self.can_fire() else None

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` skipped cycles to the stall counter.

        Matches what per-cycle :meth:`step` calls would have recorded: a
        busy core that cannot fire stalls every cycle of the span.
        """
        if self.busy:
            self.stall_cycles += cycles

    def compute_tiles_batch(
        self,
        count: int,
        a_words: np.ndarray,
        b_words: np.ndarray,
        c_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure batched datapath: ``count`` whole output tiles in one einsum.

        ``a_words``/``b_words`` are ``(count * tiles_k, word_bytes)`` uint8
        batches of the operand words the core would pop cycle by cycle;
        ``c_words`` is the ``(count, acc_word_bytes)`` init-stream batch (or
        ``None`` for zero initialisation).  Returns the ``(count,
        acc_word_bytes)`` byte images the core would push to its sink —
        bit-identical to ``count * tiles_k`` sequential MAC steps, because
        int32 accumulation is associative even under wraparound.  Counters
        and indices are *not* touched; the macro-step replayer owns those.
        """
        assert self.job is not None
        k = self.job.tiles_k
        a_tiles = (
            np.ascontiguousarray(a_words, dtype=np.uint8)
            .view(np.int8)
            .reshape(count, k, self.mu, self.ku)
            .astype(np.int32)
        )
        b_tiles = (
            np.ascontiguousarray(b_words, dtype=np.uint8)
            .view(np.int8)
            .reshape(count, k, self.ku, self.nu)
            .astype(np.int32)
        )
        acc = np.einsum("tkij,tkjl->til", a_tiles, b_tiles, dtype=np.int32)
        if c_words is not None:
            acc = acc + (
                np.ascontiguousarray(c_words, dtype=np.uint8)
                .view(np.int32)
                .reshape(count, self.mu, self.nu)
            )
        acc = np.ascontiguousarray(acc, dtype=np.int32)
        return acc.view(np.uint8).reshape(count, -1)

    def step(self) -> bool:
        """Advance one cycle; return True if a MAC step fired."""
        if self.job is None or self.done:
            return False
        if not self._inputs_available():
            self.stall_cycles += 1
            return False

        if self._k_index == 0:
            if self.job.use_init_stream:
                init_word = self.c_stream.pop_output()
                self._accumulator = bytes_to_tile(
                    init_word, (self.mu, self.nu), np.int32
                )
            else:
                self._accumulator = np.zeros((self.mu, self.nu), dtype=np.int32)

        a_tile = bytes_to_tile(
            self.a_stream.pop_output(), (self.mu, self.ku), np.int8, np.int32
        )
        b_tile = bytes_to_tile(
            self.b_stream.pop_output(), (self.ku, self.nu), np.int8, np.int32
        )
        self._accumulator = self._accumulator + a_tile @ b_tile
        self.mac_cycles += 1

        self._k_index += 1
        if self._k_index == self.job.tiles_k:
            self.output_sink.push_input(tile_to_bytes(self._accumulator))
            self._k_index = 0
            self._tile_index += 1
        return True

    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        return {
            "mac_cycles": self.mac_cycles,
            "stall_cycles": self.stall_cycles,
            "tiles_completed": self._tile_index,
        }
