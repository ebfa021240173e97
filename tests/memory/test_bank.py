"""Tests for the single-bank SRAM model.

The memory subsystem reads a granted word straight from the scratchpad's
buffer; a bank's own surface is its counted, byte-strobed ``write`` over the
storage rows it is given.
"""

import numpy as np
import pytest

from repro.memory import MemoryBank


def make_bank(index=0, width_bytes=4, depth=2):
    """A bank over storage rows the test holds, as the scratchpad passes its view."""
    storage = np.zeros((depth, width_bytes), dtype=np.uint8)
    return MemoryBank(index, width_bytes, depth, storage), storage


class TestMemoryBank:
    def test_read_back_written_word(self):
        bank, storage = make_bank(width_bytes=8, depth=4)
        word = np.arange(8, dtype=np.uint8)
        bank.write(2, word)
        assert np.array_equal(storage[2], word)

    def test_initial_contents_zero(self):
        bank = MemoryBank(index=0, width_bytes=4, depth=2)
        assert np.array_equal(bank._data, np.zeros((2, 4), dtype=np.uint8))

    def test_access_counters(self):
        bank, _ = make_bank()
        bank.write(0, np.zeros(4, dtype=np.uint8))
        bank.write(1, np.zeros(4, dtype=np.uint8))
        assert bank.write_count == 2
        assert bank.read_count == 0

    def test_byte_strobe_partial_write(self):
        bank, storage = make_bank(index=1)
        bank.write(0, np.array([1, 2, 3, 4], dtype=np.uint8))
        strobe = np.array([True, False, True, False])
        bank.write(0, np.array([9, 9, 9, 9], dtype=np.uint8), strobe=strobe)
        assert list(storage[0]) == [9, 2, 9, 4]

    def test_peek_poke_do_not_count(self):
        """The backdoor is the storage view: using it moves no counter."""
        bank, storage = make_bank()
        storage[1] = [5, 6, 7, 8]
        assert list(bank._data[1]) == [5, 6, 7, 8]
        assert bank.read_count == 0
        assert bank.write_count == 0

    def test_out_of_range_line_raises(self):
        bank, _ = make_bank()
        with pytest.raises(IndexError):
            bank.write(2, np.zeros(4, dtype=np.uint8))
        with pytest.raises(IndexError):
            bank.write(-1, np.zeros(4, dtype=np.uint8))

    def test_wrong_word_size_raises(self):
        bank, _ = make_bank()
        with pytest.raises(ValueError):
            bank.write(0, np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            bank.write(0, np.zeros(4, dtype=np.uint8), strobe=np.ones(3, dtype=bool))

    def test_read_returns_copy(self):
        """A written word is copied in: changing the source afterwards does
        not reach the bank."""
        bank, storage = make_bank(depth=1)
        word = np.arange(4, dtype=np.uint8)
        bank.write(0, word)
        word[:] = 0xFF
        assert list(storage[0]) == [0, 1, 2, 3]

