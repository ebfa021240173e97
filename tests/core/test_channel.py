"""Tests for the per-channel MIC (credits, issue, collect) behaviour."""

import numpy as np
import pytest

from repro.core import StreamerDesign, StreamerMode
from repro.core.channel import ChannelAddress, StreamChannel
from repro.memory import BankGeometry, BankLocation, MemorySubsystem

GEOMETRY = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=16)


def make_design(mode=StreamerMode.READ, data_depth=2, addr_depth=4):
    return StreamerDesign(
        name="dm_t",
        mode=mode,
        num_channels=2,
        spatial_bounds=(2,),
        temporal_dims=2,
        bank_width_bits=64,
        address_buffer_depth=addr_depth,
        data_buffer_depth=data_depth,
    )


def make_channel(mode=StreamerMode.READ, **kwargs):
    return StreamChannel("dm_t", 0, make_design(mode=mode, **kwargs))


def address(step, bank=0, line=0):
    return ChannelAddress(
        logical=line * GEOMETRY.num_banks * 8 + bank * 8,
        location=BankLocation(bank=bank, line=line, byte_offset=0),
        step=step,
    )


def cycle(memory, channels):
    memory.deliver()
    for channel in channels:
        channel.collect(memory)
    for channel in channels:
        channel.issue(memory)
    memory.step()


class TestReadChannel:
    def test_issue_requires_address(self):
        channel = make_channel()
        memory = MemorySubsystem(GEOMETRY)
        assert not channel.issue(memory)
        assert channel.requests_issued == 0

    def test_read_data_lands_in_fifo(self):
        channel = make_channel()
        memory = MemorySubsystem(GEOMETRY)
        memory.scratchpad.backdoor_write(0, np.arange(8, dtype=np.uint8), group_size=4)
        channel.push_address(address(step=0, bank=0, line=0))
        for _ in range(3):
            cycle(memory, [channel])
        assert channel.output_word_available()
        assert np.array_equal(channel.pop_output_word(), np.arange(8, dtype=np.uint8))

    def test_orm_credits_limit_outstanding_requests(self):
        """No more requests in flight than free data-FIFO slots."""
        channel = make_channel(data_depth=2)
        memory = MemorySubsystem(GEOMETRY)
        for step in range(4):
            channel.push_address(address(step=step, bank=0, line=step))
        # Issue without ever draining the data FIFO.
        issued_per_cycle = []
        for _ in range(6):
            before = channel.requests_issued
            cycle(memory, [channel])
            issued_per_cycle.append(channel.requests_issued - before)
        # With a depth-2 FIFO the channel can never have more than 2
        # requests outstanding or buffered, so only 2 are ever issued.
        assert channel.requests_issued == 2
        assert channel.data_fifo.occupancy == 2
        assert channel.credit_stall_cycles > 0

    def test_credits_replenish_after_pop(self):
        channel = make_channel(data_depth=1)
        memory = MemorySubsystem(GEOMETRY)
        for step in range(2):
            channel.push_address(address(step=step, bank=0, line=step))
        for _ in range(3):
            cycle(memory, [channel])
        assert channel.requests_issued == 1
        channel.pop_output_word()
        for _ in range(3):
            cycle(memory, [channel])
        assert channel.requests_issued == 2

    def test_busy_tracks_all_stages(self):
        channel = make_channel()
        memory = MemorySubsystem(GEOMETRY)
        assert not channel.busy
        channel.push_address(address(step=0))
        assert channel.busy
        for _ in range(3):
            cycle(memory, [channel])
        assert channel.busy  # data waiting in FIFO
        channel.pop_output_word()
        assert not channel.busy

    def test_reset_clears_state(self):
        channel = make_channel()
        channel.push_address(address(step=0))
        channel.reset()
        assert not channel.busy
        assert channel.address_fifo.is_empty


class TestMemoryRegistration:
    def test_collect_before_any_submit_does_not_register(self):
        """A channel joins arbitration at its first issue, not by polling."""
        first, second = (StreamChannel("dm_t", i, make_design()) for i in (0, 1))
        memory = MemorySubsystem(GEOMETRY)
        assert first.collect(memory) == 0
        assert memory.outstanding_count(first.requester_id) == 0
        # Had collect() registered ``first``, it would head the contender
        # list and win the first-ever arbitration of bank 0.
        second.push_address(address(step=0, bank=0))
        first.push_address(address(step=0, bank=0, line=1))
        assert second.issue(memory) and first.issue(memory)
        memory.step()
        assert memory.requester_stats(second.requester_id)["granted"] == 1
        assert memory.requester_stats(first.requester_id)["granted"] == 0


class TestWriteChannel:
    def test_write_requires_address_and_data(self):
        channel = make_channel(mode=StreamerMode.WRITE)
        memory = MemorySubsystem(GEOMETRY)
        channel.push_input_word(np.full(8, 5, dtype=np.uint8))
        assert not channel.issue(memory)
        channel.push_address(address(step=0, bank=1, line=2))
        assert channel.issue(memory)

    def test_write_reaches_memory(self):
        channel = make_channel(mode=StreamerMode.WRITE)
        memory = MemorySubsystem(GEOMETRY)
        channel.push_address(address(step=0, bank=1, line=2))
        channel.push_input_word(np.full(8, 9, dtype=np.uint8))
        for _ in range(3):
            cycle(memory, [channel])
        stored = memory.scratchpad.read_word(1, 2)
        assert np.array_equal(stored, np.full(8, 9, dtype=np.uint8))
        assert not channel.busy  # ack received, nothing outstanding

    def test_input_space_available(self):
        channel = make_channel(mode=StreamerMode.WRITE, data_depth=1)
        assert channel.input_space_available()
        channel.push_input_word(np.zeros(8, dtype=np.uint8))
        assert not channel.input_space_available()


class TestStatistics:
    def test_statistics_dictionary(self):
        channel = make_channel()
        memory = MemorySubsystem(GEOMETRY)
        channel.push_address(address(step=0))
        for _ in range(3):
            cycle(memory, [channel])
        stats = channel.statistics()
        assert stats["requests_issued"] == 1
        assert stats["responses_received"] == 1
        assert stats["max_data_occupancy"] == 1
