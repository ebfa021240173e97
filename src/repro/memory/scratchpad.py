"""Multi-banked scratchpad storage.

:class:`ScratchpadMemory` holds the whole scratchpad as one ``bytearray``,
:attr:`~ScratchpadMemory.buffer`, viewed as a ``(num_banks, depth, width)``
uint8 array, :attr:`~ScratchpadMemory.storage`; each
:class:`~repro.memory.bank.MemoryBank` stores its wordlines in a view of one
row of it.  The crossbar reads a granted word as a slice of the buffer — a
bytes-like copy, taken at the grant, that later writes do not reach.  Bulk
access (the DMA's tensor loads, read-back, the macro-step replayer) is one
fancy index into that array, whatever the number of banks it touches.  The
scratchpad provides two views on the banks:

* a *port* view used by the crossbar/memory subsystem — a granted word at a
  decoded (bank, line) location, read as a slice of the buffer or written
  through :meth:`~repro.memory.bank.MemoryBank.write`, counted on its bank;
  a stream's words are counted from the stream's grant cursors instead,
  when a bank's count is read (:meth:`~ScratchpadMemory.streamed`);
* a *backdoor* view used by the DMA model, the compiler's data loader and the
  tests — byte-level reads/writes at flat logical addresses under a given
  addressing mode, which do not consume ports and are not counted.
"""

from __future__ import annotations

import weakref
from typing import List

import numpy as np

from .addressing import BankGeometry, decode_address_batch
from .bank import MemoryBank


class ScratchpadMemory:
    """The on-chip scratchpad: ``num_banks`` single-ported banks."""

    def __init__(self, geometry: BankGeometry) -> None:
        self.geometry = geometry
        width, depth = geometry.bank_width_bytes, geometry.bank_depth
        #: Every bank's wordlines, bank-major: word ``(bank, line)`` is the
        #: ``width`` bytes at ``(bank * depth + line) * width``.
        self.buffer = bytearray(geometry.num_banks * depth * width)
        #: The same bytes as an array: ``storage[bank, line]`` is one word.
        self.storage = np.frombuffer(self.buffer, dtype=np.uint8).reshape(
            geometry.num_banks, depth, width
        )
        #: The same bytes as one opaque word each, ``words[bank * depth +
        #: line]``: what a macro jump gathers and scatters.
        self.words = np.frombuffer(self.buffer, dtype=(np.void, width))
        self.banks: List[MemoryBank] = [
            MemoryBank(index, width, depth, rows)
            for index, rows in enumerate(self.storage)
        ]
        #: The streams whose grants the banks count (the serving memory
        #: subsystem's), and :meth:`streamed`'s last count with the grant
        #: cursors it was taken at.
        self.streams: list = []
        self._tally: tuple = (None, None)
        tally = weakref.WeakMethod(self.streamed)
        for bank in self.banks:
            bank.tally = tally

    # ------------------------------------------------------------------
    # Bank counts of streamed words.
    # ------------------------------------------------------------------
    def streamed(self) -> list:
        """Each bank's reads and writes by the streams bound to this
        scratchpad's memory, ``[reads, writes]``: every channel's rows below
        its grant cursor (a row is a pure function of its step), decoded
        again only when a cursor has moved since the last count."""
        streams = [
            stream
            for stream in self.streams
            if (memory := stream.memory) is not None and memory.scratchpad is self
        ]
        cursors = [(stream, tuple(stream.cursors()[0])) for stream in streams]
        if cursors != self._tally[0]:
            counts = np.zeros((2, len(self.banks)), np.int64)
            for stream in streams:
                counts[0 if stream.is_read else 1] += np.bincount(
                    stream.granted_banks(), minlength=len(self.banks)
                )
            self._tally = cursors, counts.tolist()
        return self._tally[1]

    def fold(self, stream) -> None:
        """Count ``stream``'s grants on the banks themselves, before its
        grant cursors restart.  The last count is dropped with it: the
        stream may reach the same cursors again over other rows."""
        self._tally = (None, None)
        counts = np.bincount(stream.granted_banks(), minlength=len(self.banks))
        for bank, count in zip(self.banks, counts.tolist()):
            if stream.is_read:
                bank.reads += count
            else:
                bank.writes += count

    # ------------------------------------------------------------------
    # Backdoor view (uncounted, byte granular, used for data loading).
    # ------------------------------------------------------------------
    def _covering_words(self, access: str, address: int, size: int, group_size: int):
        """Decoded ``(banks, lines)`` of the words covering a byte range.

        Also returns the byte offset of ``address`` inside the first word.
        A range outside the scratchpad raises a ``ValueError`` naming the
        ``access``, its address and its size.
        """
        geometry = self.geometry
        if size < 0:
            raise ValueError(
                f"backdoor {access} of {size} B at address {address:#x}: "
                f"the size must not be negative"
            )
        if not geometry.contains(address, size):
            raise ValueError(
                f"backdoor {access} of {size} B at address {address:#x} leaves "
                f"the scratchpad [0, {geometry.capacity_bytes:#x})"
            )
        width = geometry.bank_width_bytes
        first = address // width
        count = (address + size - 1) // width - first + 1
        banks, lines, _ = decode_address_batch(
            np.arange(first, first + count, dtype=np.int64) * width,
            geometry,
            group_size,
        )
        return banks, lines, address - first * width

    def backdoor_write(self, address: int, data: np.ndarray, group_size: int) -> None:
        """Write ``data`` bytes starting at logical ``address``.

        ``group_size`` selects the addressing mode under which the region is
        later accessed by the streamers, so the bytes land in the same
        physical locations the streamer requests will target.
        """
        payload = np.asarray(data, dtype=np.uint8).reshape(-1)
        banks, lines, head = self._covering_words(
            "write", address, payload.size, group_size
        )
        if not payload.size:
            return
        # Only the first and last word can be partial: gather the covering
        # words, lay the payload over their byte image, store them back.
        words = self.storage[banks, lines]
        words.reshape(-1)[head : head + payload.size] = payload
        self.storage[banks, lines] = words

    def backdoor_read(self, address: int, size: int, group_size: int) -> np.ndarray:
        """Read ``size`` bytes starting at logical ``address``."""
        banks, lines, head = self._covering_words("read", address, size, group_size)
        if not size:
            return np.zeros(0, dtype=np.uint8)
        return self.storage[banks, lines].reshape(-1)[head : head + size]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScratchpadMemory(geometry={self.geometry})"
