"""Multi-banked scratchpad storage.

:class:`ScratchpadMemory` owns the :class:`~repro.memory.bank.MemoryBank`
instances and provides two views on them:

* a *port* view used by the crossbar/memory subsystem — word accesses at a
  decoded (bank, line) location, which count towards the access statistics;
* a *backdoor* view used by the DMA model, the compiler's data loader and the
  tests — byte-level reads/writes at flat logical addresses under a given
  addressing mode, which do not consume ports and are not counted.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .addressing import BankGeometry, decode_address_batch
from .bank import MemoryBank


class ScratchpadMemory:
    """The on-chip scratchpad: ``num_banks`` single-ported banks."""

    def __init__(self, geometry: BankGeometry) -> None:
        self.geometry = geometry
        self.banks: List[MemoryBank] = [
            MemoryBank(index, geometry.bank_width_bytes, geometry.bank_depth)
            for index in range(geometry.num_banks)
        ]

    # ------------------------------------------------------------------
    # Port view (counted accesses).
    # ------------------------------------------------------------------
    def read_word(self, bank: int, line: int) -> np.ndarray:
        """Read one full word from a decoded location."""
        return self.banks[bank].read(line)

    def write_word(
        self,
        bank: int,
        line: int,
        data: np.ndarray,
        strobe: Optional[np.ndarray] = None,
    ) -> None:
        """Write one word (optionally byte-strobed) at a decoded location."""
        self.banks[bank].write(line, data, strobe)

    # ------------------------------------------------------------------
    # Bulk span access (macro-step fast path; uncounted — the caller
    # applies the per-bank access counters for the whole span at once).
    # ------------------------------------------------------------------
    def stacked_words(self) -> np.ndarray:
        """One ``(num_banks, depth, width)`` copy of the whole scratchpad.

        Indexing the stack with decoded ``(bank, line)`` arrays gathers many
        words in one numpy operation; the macro-step replayer builds the
        stack once per span and serves every channel's reads from it.
        """
        return np.stack([bank._data for bank in self.banks])

    def scatter_words(
        self, banks: np.ndarray, lines: np.ndarray, words: np.ndarray
    ) -> None:
        """Write many full words at decoded locations (one op per bank).

        Locations must be unique — duplicate targets within one scatter
        would make the outcome order-dependent, which the macro-step
        planner rules out before calling.
        """
        banks = np.asarray(banks)
        lines = np.asarray(lines)
        for bank_index in np.unique(banks):
            mask = banks == bank_index
            self.banks[int(bank_index)]._data[lines[mask]] = words[mask]

    @property
    def total_reads(self) -> int:
        return sum(bank.read_count for bank in self.banks)

    @property
    def total_writes(self) -> int:
        return sum(bank.write_count for bank in self.banks)

    # ------------------------------------------------------------------
    # Backdoor view (uncounted, byte granular, used for data loading).
    # ------------------------------------------------------------------
    def _covering_words(self, address: int, size: int, group_size: int):
        """Decoded ``(banks, lines)`` of the words covering a byte range.

        Also returns the byte offset of ``address`` inside the first word.
        One vectorized decode for the whole range; out-of-range addresses
        raise ``ValueError`` exactly as :func:`decode_address` does.
        """
        width = self.geometry.bank_width_bytes
        first = address // width
        count = (address + size - 1) // width - first + 1
        banks, lines, _ = decode_address_batch(
            (first + np.arange(count, dtype=np.int64)) * width,
            self.geometry,
            group_size,
        )
        return banks, lines, address - first * width

    def backdoor_write(self, address: int, data: np.ndarray, group_size: int) -> None:
        """Write ``data`` bytes starting at logical ``address``.

        ``group_size`` selects the addressing mode under which the region is
        later accessed by the streamers, so the bytes land in the same
        physical locations the streamer requests will target.
        """
        payload = np.ascontiguousarray(np.asarray(data, dtype=np.uint8)).ravel()
        if not payload.size:
            return
        banks, lines, head = self._covering_words(address, payload.size, group_size)
        # Only the first and last word can be partial: start from what they
        # hold, lay the payload over the byte image, scatter whole words.
        words = np.empty((banks.size, self.geometry.bank_width_bytes), dtype=np.uint8)
        for edge in (0, -1):
            words[edge] = self.banks[banks[edge]]._data[lines[edge]]
        words.reshape(-1)[head : head + payload.size] = payload
        self.scatter_words(banks, lines, words)

    def backdoor_read(self, address: int, size: int, group_size: int) -> np.ndarray:
        """Read ``size`` bytes starting at logical ``address``."""
        if size <= 0:
            return np.zeros(size, dtype=np.uint8)
        banks, lines, head = self._covering_words(address, size, group_size)
        words = np.empty((banks.size, self.geometry.bank_width_bytes), dtype=np.uint8)
        for bank_index in np.unique(banks):
            mask = banks == bank_index
            words[mask] = self.banks[int(bank_index)]._data[lines[mask]]
        return words.reshape(-1)[head : head + size].copy()

    def clear(self) -> None:
        """Zero-fill every bank and reset the access counters."""
        for bank in self.banks:
            bank.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScratchpadMemory(geometry={self.geometry})"
