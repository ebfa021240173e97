"""Single scratchpad memory bank.

A bank is a single-ported SRAM: one read *or* one write per cycle.  The
arbitration that enforces the single port lives in
:class:`repro.memory.subsystem.MemorySubsystem`; the bank itself is the plain
storage array plus bounds checking and byte-strobe support for partial
writes.  Its access counts are exact whenever read, but a stream's grants
are not bumped into them one word at a time: the scratchpad counts those
from the streams' grant cursors (``tally``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class MemoryBank:
    """One bank of the multi-banked scratchpad.

    Parameters
    ----------
    index:
        Position of this bank inside the scratchpad (used in error messages).
    width_bytes:
        Width of one wordline in bytes.
    depth:
        Number of wordlines.
    data:
        Optional ``(depth, width_bytes)`` uint8 array to store the wordlines
        in, instead of a fresh zeroed one — the scratchpad passes a view of
        its one array.
    """

    def __init__(
        self,
        index: int,
        width_bytes: int,
        depth: int,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if width_bytes <= 0 or depth <= 0:
            raise ValueError("bank width and depth must be positive")
        self.index = int(index)
        self.width_bytes = int(width_bytes)
        self.depth = int(depth)
        if data is None:
            data = np.zeros((self.depth, self.width_bytes), dtype=np.uint8)
        elif data.shape != (self.depth, self.width_bytes):
            raise ValueError(
                f"bank storage must have shape ({self.depth}, {self.width_bytes}), "
                f"got {data.shape}"
            )
        self._data = data
        #: Accesses counted here, word by word: a by-name requester's.
        self.reads = 0
        self.writes = 0
        #: Its scratchpad's count of the streams' grants, held weakly
        #: (``tally()()`` is ``[reads, writes]``, a count per bank); ``None``
        #: for a bank on its own.
        self.tally = None

    @property
    def read_count(self) -> int:
        """Reads so far, the streams' grants included."""
        return self.reads + self._streamed(0)

    @property
    def write_count(self) -> int:
        """Writes so far, the streams' grants included."""
        return self.writes + self._streamed(1)

    def _streamed(self, kind: int) -> int:
        tally = self.tally and self.tally()
        return tally()[kind][self.index] if tally else 0

    # ------------------------------------------------------------------
    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.depth:
            raise IndexError(
                f"wordline {line} out of range for bank {self.index} "
                f"(depth={self.depth})"
            )

    def write(
        self, line: int, data: np.ndarray, strobe: Optional[np.ndarray] = None
    ) -> None:
        """Write ``data`` into wordline ``line``.

        ``strobe`` is an optional boolean mask selecting which bytes to
        update (hardware byte-enable).  Without a strobe the full word is
        replaced.
        """
        self._check_line(line)
        payload = np.asarray(data, dtype=np.uint8)
        if payload.shape != (self.width_bytes,):
            raise ValueError(
                f"write data must have {self.width_bytes} bytes, "
                f"got shape {payload.shape}"
            )
        self.writes += 1
        if strobe is None:
            self._data[line] = payload
            return
        mask = np.asarray(strobe, dtype=bool)
        if mask.shape != (self.width_bytes,):
            raise ValueError(
                f"strobe must have {self.width_bytes} entries, got {mask.shape}"
            )
        self._data[line][mask] = payload[mask]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBank(index={self.index}, width_bytes={self.width_bytes}, "
            f"depth={self.depth})"
        )
