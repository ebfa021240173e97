"""Tensor-Core-like GeMM accelerator datapath (paper §IV-A, Fig. 6).

The GeMM core is a 3-D ``Mu × Nu × Ku`` MAC array that executes
``D_32 = A_8 ⊗ B_8 + C_32``: every cycle it consumes one ``Mu × Ku`` int8
tile of A and one ``Ku × Nu`` int8 tile of B, accumulating into a
``Mu × Nu`` int32 tile that starts from the C stream's word (or zero).

The model keeps the words it pops, not a running sum.  At the first
reduction step of an output tile it pops the C word, at every step an A and
a B word — each a streamer's row as one bytes-like word
(:meth:`~repro.core.streamer.DataMaestro.pop_word`), checked for its width
at the step that pops it.  At the last step it joins them and computes the
tile once with :meth:`GemmCore.compute_tiles_batch` —
the function the steady-span replay uses for whole spans, so the two share
one datapath — and pushes it to the output sink, either a write-mode
DataMaestro or the quantization accelerator.  int32 accumulation is
associative under wraparound, so the tile equals a per-MAC running sum.

Whether the tiles represent a plain GeMM, a transposed GeMM or an
(implicitly im2col-ed) convolution is entirely determined by how the
DataMaestros are programmed; the core itself is workload agnostic, exactly as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np

from ..sim.result import SteadyBail


class StreamSource(Protocol):
    """Read-side interface the core expects (provided by DataMaestro)."""

    def output_valid(self) -> bool: ...

    def pop_word(self):
        """One word, bytes-like: ``bytes`` or a flat uint8 array, which may
        be read-only."""
        ...


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
        #: Bytes of one A, B and C / output word.
        self.a_word_bytes = self.mu * self.ku
        self.b_word_bytes = self.ku * self.nu
        self.acc_word_bytes = self.mu * self.nu * 4
        self.a_stream: Optional[StreamSource] = None
        self.b_stream: Optional[StreamSource] = None
        self.c_stream: Optional[StreamSource] = None
        self.output_sink: Optional[StreamSink] = None
        self.job: Optional[GemmJob] = None
        #: Output tiles pushed to the sink so far, and the job's (set by
        #: :meth:`configure`): the core is done once the one reaches the other.
        self.tiles_completed = 0
        self.output_tiles = 0
        self._k_index = 0
        #: The current output tile's operand words, popped so far (reset at
        #: every k = 0).
        self._a_words: list = []
        self._b_words: list = []
        self._c_word = None
        self.mac_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Number of MAC units in the array."""
        return self.mu * self.nu * self.ku

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
        self.output_tiles = job.output_tiles
        self.tiles_completed = 0
        self._k_index = 0
        self.mac_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.job is not None and self.tiles_completed >= self.output_tiles

    @property
    def busy(self) -> bool:
        return self.job is not None and not self.done

    @property
    def progress(self) -> float:
        if self.job is None:
            return 0.0
        total = self.job.ideal_compute_cycles
        completed = self.tiles_completed * self.job.tiles_k + self._k_index
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

    # ------------------------------------------------------------------
    # Steady-span protocol (see repro.engine.steady).
    # ------------------------------------------------------------------
    def period_counters(self) -> List[tuple]:
        """What a steady period advances: MAC and stall cycles, tiles."""
        return [(self, "mac_cycles"), (self, "stall_cycles"), (self, "tiles_completed")]

    def period_signature(self) -> tuple:
        """Nothing: a boundary completes a tile (``k`` is 0) and the words
        popped for it are dropped at the next tile's first step."""
        return ()

    def period_tiles(self, delta: List[int]) -> int:
        """Output tiles per steady period, from :meth:`period_counters`'
        change over one; bails unless each took ``tiles_k`` MAC steps."""
        macs, _, tiles = delta
        if tiles < 1 or macs != tiles * self.job.tiles_k:
            raise SteadyBail("tile_cadence")
        return tiles

    def period_consumers(self, tiles: int) -> dict:
        """The streams this core pops over a steady period of ``tiles``
        output tiles: stream -> (words per period, words popped by now)."""
        k = self.job.tiles_k
        operand = (tiles * k, self.tiles_completed * k)
        consumers = {
            stream: operand
            for stream in (self.a_stream, self.b_stream)
            if stream is not None
        }
        if self.job.use_init_stream and self.c_stream is not None:
            consumers[self.c_stream] = (tiles, self.tiles_completed)
        if self.a_stream is self.b_stream:
            raise SteadyBail("shared_operand_stream")
        return consumers

    def compute_tiles_batch(
        self,
        count: int,
        a_words: np.ndarray,
        b_words: np.ndarray,
        c_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure batched datapath: ``count`` whole output tiles in one
        batched int8 product with int32 accumulation.

        ``a_words``/``b_words`` hold ``count * tiles_k`` operand words of
        ``word_bytes`` uint8 each, in pop order (as contiguous rows or
        flat); ``c_words`` holds ``count`` init-stream words of
        ``acc_word_bytes`` (or is ``None`` for zero initialisation).  A
        tile's ``tiles_k`` A words side by side are one ``Mu × tiles_k·Ku``
        int8 matrix and its B words stacked, transposed, one ``Nu ×
        tiles_k·Ku`` int8 matrix, so the whole reduction is one ``einsum``
        over rows that are contiguous on both sides, accumulated in int32.
        Returns the ``(count, acc_word_bytes)`` byte images to push to the
        sink — bit-identical to ``count * tiles_k`` sequential MAC steps,
        because int32 accumulation is associative even under wraparound.
        Counters and indices are *not* touched; :meth:`step` (one tile) and
        the macro-step replayer (whole spans) own those.
        """
        assert self.job is not None
        k = self.job.tiles_k
        mu, nu, ku = self.mu, self.nu, self.ku
        # An A word is Mu rows of Ku bytes; each row moves whole.
        a_tiles = (
            a_words.reshape(count, k, mu, ku)
            .view((np.void, ku))
            .transpose(0, 2, 1, 3)
            .copy()
            .view(np.int8)
            .reshape(count, mu, k * ku)
        )
        b_tiles = (
            b_words.view(np.int8).reshape(count, k * ku, nu).transpose(0, 2, 1).copy()
        )
        acc = np.einsum("cmk,cnk->cmn", a_tiles, b_tiles, dtype=np.int32)
        if c_words is not None:
            acc += c_words.view(np.int32).reshape(count, mu, nu)
        return acc.view(np.uint8).reshape(count, -1)

    def step(self) -> bool:
        """Advance one cycle; return True if a MAC step fired."""
        if self.tiles_completed >= self.output_tiles:
            return False  # done, or no job
        if not self._inputs_available():
            self.stall_cycles += 1
            return False

        job = self.job
        if self._k_index == 0:
            self._c_word = None
            if job.use_init_stream:
                self._c_word = c_word = self.c_stream.pop_word()
                if len(c_word) != self.acc_word_bytes:
                    raise _width_error("C", c_word, self.acc_word_bytes)
            self._a_words = []
            self._b_words = []
        a_word = self.a_stream.pop_word()
        if len(a_word) != self.a_word_bytes:
            raise _width_error("A", a_word, self.a_word_bytes)
        b_word = self.b_stream.pop_word()
        if len(b_word) != self.b_word_bytes:
            raise _width_error("B", b_word, self.b_word_bytes)
        self._a_words.append(a_word)
        self._b_words.append(b_word)
        self.mac_cycles += 1

        self._k_index += 1
        if self._k_index == job.tiles_k:
            c_word = self._c_word
            tile = self.compute_tiles_batch(
                1,
                np.frombuffer(b"".join(self._a_words), np.uint8),
                np.frombuffer(b"".join(self._b_words), np.uint8),
                None if c_word is None else np.frombuffer(c_word, np.uint8),
            )
            self.output_sink.push_input(tile[0])
            self._k_index = 0
            self.tiles_completed += 1
        return True

    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        return {
            "mac_cycles": self.mac_cycles,
            "stall_cycles": self.stall_cycles,
            "tiles_completed": self.tiles_completed,
        }


def _width_error(port: str, word: np.ndarray, expected: int) -> ValueError:
    """The error for a word of the wrong width popped at ``port``."""
    return ValueError(
        f"GeMM port {port}: word of {len(word)} bytes, expected {expected}"
    )
