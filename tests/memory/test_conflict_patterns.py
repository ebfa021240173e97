"""Targeted bank-conflict scenarios on the crossbar/scratchpad model.

These tests pin down the arbitration behaviour the ablation results rely on:
N requesters hitting one bank serialise over N cycles, disjoint banks proceed
in parallel, and the addressing mode determines whether a strided access
pattern lands on one bank or spreads across many.
"""

import numpy as np
import pytest

from repro.memory import (
    BankGeometry,
    MemoryRequest,
    MemorySubsystem,
    decode_address,
)

GEOMETRY = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=32)


def read(requester, bank, line=0):
    return MemoryRequest(requester=requester, is_write=False, bank=bank, line=line)


def run_until_all_served(memory, requesters, max_cycles=100):
    """Cycle until every requester got all its responses; return cycle count."""
    served = {name: 0 for name in requesters}
    submitted = {name: memory.pending_count(name) for name in requesters}
    for cycle in range(1, max_cycles + 1):
        memory.deliver()
        for name in requesters:
            served[name] += len(memory.collect(memory.bind(name)))
        memory.step()
        if all(served[name] >= submitted[name] for name in requesters):
            return cycle
    raise AssertionError("requests were not all served")


class TestSerialisation:
    @pytest.mark.parametrize("contenders", [2, 4, 8])
    def test_same_bank_serialises_linearly(self, contenders):
        memory = MemorySubsystem(GEOMETRY, read_latency=1)
        names = [f"ch{i}" for i in range(contenders)]
        for name in names:
            memory.submit(read(name, bank=3))
        cycles = run_until_all_served(memory, names)
        # One grant per cycle plus one latency cycle for the last grant.
        assert cycles == contenders + 1
        assert memory.total_conflicts == sum(range(contenders))

    @pytest.mark.parametrize("contenders", [2, 4, 8])
    def test_distinct_banks_complete_in_parallel(self, contenders):
        memory = MemorySubsystem(GEOMETRY, read_latency=1)
        names = [f"ch{i}" for i in range(contenders)]
        for index, name in enumerate(names):
            memory.submit(read(name, bank=index))
        cycles = run_until_all_served(memory, names)
        assert cycles == 2  # grant + latency
        assert memory.total_conflicts == 0

    def test_mixed_pattern(self):
        """Two requesters on one bank, one on another: 3 grants in 2 cycles."""
        memory = MemorySubsystem(GEOMETRY, read_latency=1)
        memory.submit(read("a", bank=0))
        memory.submit(read("b", bank=0))
        memory.submit(read("c", bank=5))
        cycles = run_until_all_served(memory, ["a", "b", "c"])
        assert cycles == 3
        assert memory.total_conflicts == 1


class TestAddressingModeConflictExposure:
    """The same logical stride pattern conflicts or not depending on mode."""

    def banks_for_stride(self, stride_words, count, group_size):
        return [
            decode_address(i * stride_words * 8, GEOMETRY, group_size).bank
            for i in range(count)
        ]

    def test_unit_stride_spreads_under_fima(self):
        banks = self.banks_for_stride(1, 8, group_size=8)
        assert len(set(banks)) == 8

    def test_unit_stride_hits_one_bank_under_nima(self):
        banks = self.banks_for_stride(1, 8, group_size=1)
        assert len(set(banks)) == 1

    def test_bank_count_stride_is_pathological_under_fima(self):
        """A stride equal to the bank count maps everything to one bank."""
        banks = self.banks_for_stride(GEOMETRY.num_banks, 8, group_size=8)
        assert len(set(banks)) == 1

    def test_group_interleaving_contains_stride_within_group(self):
        banks = self.banks_for_stride(1, 8, group_size=4)
        assert set(banks) == {0, 1, 2, 3}

    def test_pathological_stride_simulated_cost(self):
        """Eight requests landing on one bank serialise over eight grants."""
        # A bank-count stride under FIMA and a unit stride under NIMA both
        # map all eight channels onto a single bank.
        for group_size, stride_words in ((8, GEOMETRY.num_banks), (1, 1)):
            memory = MemorySubsystem(GEOMETRY, read_latency=1)
            for channel in range(8):
                location = decode_address(
                    channel * stride_words * 8, GEOMETRY, group_size
                )
                memory.submit(read(f"ch{channel}", location.bank, location.line))
            cycles = run_until_all_served(memory, [f"ch{i}" for i in range(8)])
            assert cycles == 9  # 8 serialised grants + 1 latency cycle
            # Deferred requests are re-counted every cycle they lose
            # arbitration: 7 + 6 + ... + 1.
            assert memory.total_conflicts == sum(range(8))


class TestDataIntegrityUnderConflicts:
    def test_serialised_reads_return_correct_data(self):
        memory = MemorySubsystem(GEOMETRY, read_latency=1)
        for line in range(4):
            memory.scratchpad.storage[2, line] = 10 + line
        for index in range(4):
            memory.submit(read(f"ch{index}", bank=2, line=index))
        received = {}
        for _ in range(10):
            memory.deliver()
            for index in range(4):
                for response in memory.collect(memory.bind(f"ch{index}")):
                    received[index] = response.data[0]
            memory.step()
        assert received == {0: 10, 1: 11, 2: 12, 3: 13}

    def test_write_then_read_same_bank_ordering(self):
        """A later read from the same requester sees its earlier write."""
        memory = MemorySubsystem(GEOMETRY, read_latency=1)
        payload = np.full(8, 0xAB, dtype=np.uint8)
        memory.submit(
            MemoryRequest(requester="ch0", is_write=True, bank=1, line=4, data=payload)
        )
        memory.submit(read("ch0", bank=1, line=4))
        data = None
        for _ in range(6):
            memory.deliver()
            for response in memory.collect(memory.bind("ch0")):
                if not response.is_write:
                    data = response.data
            memory.step()
        assert data is not None
        assert np.array_equal(data, payload)
