"""Tests for the multi-banked scratchpad backdoor and port views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import BankGeometry, ScratchpadMemory, decode_address

GEOMETRY = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=16)


@pytest.fixture
def scratchpad():
    return ScratchpadMemory(GEOMETRY)


class TestBackdoor:
    def test_roundtrip_word_aligned(self, scratchpad):
        data = np.arange(64, dtype=np.uint8)
        scratchpad.backdoor_write(0, data, group_size=8)
        assert np.array_equal(scratchpad.backdoor_read(0, 64, group_size=8), data)

    def test_roundtrip_unaligned_offset(self, scratchpad):
        data = np.arange(21, dtype=np.uint8) + 100
        scratchpad.backdoor_write(13, data, group_size=8)
        assert np.array_equal(scratchpad.backdoor_read(13, 21, group_size=8), data)

    def test_roundtrip_under_each_mode(self, scratchpad):
        data = np.arange(96, dtype=np.uint8)
        for group_size in (1, 2, 4, 8):
            scratchpad.storage.fill(0)
            scratchpad.backdoor_write(40, data, group_size=group_size)
            out = scratchpad.backdoor_read(40, data.size, group_size=group_size)
            assert np.array_equal(out, data)

    def test_backdoor_matches_port_view(self, scratchpad):
        """Bytes written via the backdoor are visible to decoded port reads."""
        data = np.arange(16, dtype=np.uint8) + 1
        scratchpad.backdoor_write(24, data, group_size=8)
        loc = decode_address(24, GEOMETRY, 8)
        word = scratchpad.storage[loc.bank, loc.line]
        assert np.array_equal(word, data[:8])

    def test_backdoor_does_not_count_accesses(self, scratchpad):
        scratchpad.backdoor_write(0, np.zeros(64, dtype=np.uint8), group_size=8)
        scratchpad.backdoor_read(0, 64, group_size=8)
        assert all(bank.read_count == bank.write_count == 0 for bank in scratchpad.banks)

    def test_port_accesses_count(self):
        """Words the memory subsystem grants count on their bank."""
        from repro.memory import MemoryRequest, MemorySubsystem

        memory = MemorySubsystem(GEOMETRY)
        memory.submit(MemoryRequest("w", True, 0, 0, np.zeros(8, dtype=np.uint8)))
        memory.step()
        memory.submit(MemoryRequest("r", False, 0, 0))
        memory.step()
        banks = memory.scratchpad.banks
        assert sum(bank.write_count for bank in banks) == 1
        assert sum(bank.read_count for bank in banks) == 1

    @given(
        address=st.integers(min_value=0, max_value=GEOMETRY.capacity_bytes - 128),
        size=st.integers(min_value=1, max_value=128),
        group_size=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, address, size, group_size, seed):
        scratchpad = ScratchpadMemory(GEOMETRY)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        scratchpad.backdoor_write(address, data, group_size=group_size)
        out = scratchpad.backdoor_read(address, size, group_size=group_size)
        assert np.array_equal(out, data)

    @given(
        address=st.integers(min_value=0, max_value=GEOMETRY.capacity_bytes - 128),
        size=st.integers(min_value=1, max_value=128),
        group_size=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_backdoor_matches_per_byte_decode(
        self, address, size, group_size, seed
    ):
        """The vectorized backdoor is byte-exact against one decode per byte.

        Both directions, on a scratchpad full of other data: the write must
        leave every byte outside the range alone, the read must not depend on
        the write path.
        """
        scratchpad = ScratchpadMemory(GEOMETRY)
        rng = np.random.default_rng(seed)
        for bank in scratchpad.banks:
            bank._data[:] = rng.integers(0, 256, size=bank._data.shape, dtype=np.uint8)
        expected = [bank._data.copy() for bank in scratchpad.banks]
        locations = [
            decode_address(address + i, GEOMETRY, group_size) for i in range(size)
        ]
        reference_read = np.array(
            [expected[loc.bank][loc.line, loc.byte_offset] for loc in locations],
            dtype=np.uint8,
        )
        assert np.array_equal(
            scratchpad.backdoor_read(address, size, group_size), reference_read
        )
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        for loc, byte in zip(locations, data):
            expected[loc.bank][loc.line, loc.byte_offset] = byte
        scratchpad.backdoor_write(address, data, group_size=group_size)
        for bank, image in zip(scratchpad.banks, expected):
            assert np.array_equal(bank._data, image), bank.index
        assert all(bank.read_count == bank.write_count == 0 for bank in scratchpad.banks)

    def test_backdoor_rejects_out_of_range(self, scratchpad):
        with pytest.raises(ValueError):
            scratchpad.backdoor_write(
                GEOMETRY.capacity_bytes - 4, np.zeros(8, dtype=np.uint8), group_size=8
            )
        with pytest.raises(ValueError):
            scratchpad.backdoor_read(GEOMETRY.capacity_bytes - 4, 8, group_size=8)
        with pytest.raises(ValueError):
            scratchpad.backdoor_read(-8, 8, group_size=8)

    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    def test_roundtrip_matches_a_per_word_reference(self, group_size):
        """Unaligned head and tail, on a scratchpad full of other data: the
        write equals laying the payload over each covering word located by
        ``decode_address``, and the read returns the payload."""
        width = GEOMETRY.bank_width_bytes
        address, size = 3 * width + 5, 11 * width + 3  # head and tail partial
        scratchpad = ScratchpadMemory(GEOMETRY)
        rng = np.random.default_rng(group_size)
        for bank in scratchpad.banks:
            bank._data[:] = rng.integers(0, 256, size=bank._data.shape, dtype=np.uint8)
        expected = [bank._data.copy() for bank in scratchpad.banks]
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        for word in range(address // width, (address + size - 1) // width + 1):
            loc = decode_address(word * width, GEOMETRY, group_size)
            start, end = word * width, (word + 1) * width
            lo, hi = max(address, start), min(address + size, end)
            expected[loc.bank][loc.line, lo - start : hi - start] = data[
                lo - address : hi - address
            ]
        scratchpad.backdoor_write(address, data, group_size=group_size)
        for bank, reference in zip(scratchpad.banks, expected):
            assert np.array_equal(bank._data, reference), bank.index
        assert np.array_equal(scratchpad.backdoor_read(address, size, group_size), data)

    def test_negative_read_size_names_the_access(self, scratchpad):
        with pytest.raises(ValueError, match=r"read of -3 B at address 0x28"):
            scratchpad.backdoor_read(40, -3, group_size=8)

    def test_write_past_the_end_names_the_address(self, scratchpad):
        address = GEOMETRY.capacity_bytes - 4
        with pytest.raises(ValueError, match=rf"write of 8 B at address {address:#x}"):
            scratchpad.backdoor_write(address, np.zeros(8, dtype=np.uint8), group_size=8)
        # Nothing landed: the check runs before any byte is stored.
        assert not scratchpad.storage.any()

    def test_empty_accesses_are_no_ops(self, scratchpad):
        scratchpad.backdoor_write(16, np.zeros(0, dtype=np.uint8), group_size=8)
        assert scratchpad.backdoor_read(16, 0, group_size=8).size == 0
        assert not scratchpad.storage.any()


class TestBulkSpanAccess:
    """The macro-step replayer gathers and scatters whole spans of words by
    fancy-indexing ``storage`` with decoded ``(bank, line)`` arrays."""

    def test_stacked_words_matches_read_word(self):
        import numpy as np

        from repro.memory.addressing import BankGeometry
        from repro.memory.scratchpad import ScratchpadMemory

        geometry = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=4)
        memory = ScratchpadMemory(geometry)
        rng = np.random.default_rng(0)
        for bank in memory.banks:
            for line in range(geometry.bank_depth):
                bank._data[line] = rng.integers(0, 256, 8, dtype=np.int64).astype(np.uint8)
        banks = np.array([0, 3, 2, 0])
        lines = np.array([1, 0, 3, 1])
        gathered = memory.storage[banks, lines]
        for row, (bank, line) in zip(gathered, zip(banks, lines)):
            assert np.array_equal(row, memory.banks[int(bank)]._data[int(line)])
        # A fancy-index gather is a copy: mutating it leaves the banks untouched.
        before = memory.banks[0]._data[1].copy()
        gathered[0] = ~before
        assert np.array_equal(memory.banks[0]._data[1], before)

    def test_scatter_words_matches_write_word(self):
        import numpy as np

        from repro.memory.addressing import BankGeometry
        from repro.memory.scratchpad import ScratchpadMemory

        geometry = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=4)
        memory = ScratchpadMemory(geometry)
        banks = np.array([1, 1, 3])
        lines = np.array([0, 2, 1])
        words = np.arange(3 * 8, dtype=np.uint8).reshape(3, 8)
        memory.storage[banks, lines] = words
        for bank, line, word in zip(banks, lines, words):
            assert np.array_equal(memory.banks[int(bank)]._data[int(line)], word)
        # Uncounted: a scatter does not move the port counters.
        assert all(bank.write_count == 0 for bank in memory.banks)


class TestOneArray:
    """The scratchpad is one ``(banks, depth, width)`` array; each bank's
    wordlines are a view of one row of it."""

    def test_banks_are_views_of_the_storage(self, scratchpad):
        assert scratchpad.storage.shape == (
            GEOMETRY.num_banks,
            GEOMETRY.bank_depth,
            GEOMETRY.bank_width_bytes,
        )
        for index, bank in enumerate(scratchpad.banks):
            assert np.shares_memory(bank._data, scratchpad.storage[index])
        scratchpad.banks[3]._data[5] = 7
        assert (scratchpad.storage[3, 5] == 7).all() and scratchpad.storage.sum() == 56

    def test_a_granted_write_is_visible_to_both_views(self):
        from repro.memory import MemoryRequest, MemorySubsystem

        memory = MemorySubsystem(GEOMETRY)
        address = 5 * GEOMETRY.bank_width_bytes
        loc = decode_address(address, GEOMETRY, 4)
        word = np.arange(8, dtype=np.uint8) + 40
        memory.submit(MemoryRequest("writer", True, loc.bank, loc.line, word))
        assert memory.step() == 1
        assert np.array_equal(memory.scratchpad.banks[loc.bank]._data[loc.line], word)
        assert np.array_equal(memory.scratchpad.backdoor_read(address, 8, 4), word)
        assert memory.scratchpad.banks[loc.bank].write_count == 1

    def test_many_lines_of_one_bank_scatter_like_pokes(self):
        rng = np.random.default_rng(5)
        lines = rng.permutation(GEOMETRY.bank_depth)[:12]
        words = rng.integers(0, 256, size=(12, 8), dtype=np.uint8)
        scattered, poked = ScratchpadMemory(GEOMETRY), ScratchpadMemory(GEOMETRY)
        scattered.storage[np.full(12, 6), lines] = words
        for line, word in zip(lines, words):
            poked.banks[6]._data[int(line)] = word
        assert np.array_equal(scattered.storage, poked.storage)
