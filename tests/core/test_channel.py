"""Tests for the per-channel MIC (credits, issue, delivery) behaviour.

The issue decision, its cursor and its counters are the streamer's, so every
test drives a one-channel :class:`DataMaestro` through its public phase
methods and asserts on the streamer and on its one channel: the data FIFO
``streamer.fifos[0]`` and the port ``streamer.ports[0]``.
"""

import numpy as np

from repro.core import DataMaestro, StreamerDesign, StreamerMode, StreamerRuntimeConfig
from repro.memory import BankGeometry, MemorySubsystem

GEOMETRY = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=16)
LINE_STRIDE = GEOMETRY.num_banks * 8  # same bank, next wordline


def make_streamer(
    mode=StreamerMode.READ, data_depth=2, addr_depth=4, name="dm_t", bank=0, line=0
):
    """A one-channel streamer whose step ``i`` addresses ``(bank, line + i)``."""
    design = StreamerDesign(
        name=name,
        mode=mode,
        num_channels=1,
        spatial_bounds=(1,),
        temporal_dims=2,
        bank_width_bits=64,
        address_buffer_depth=addr_depth,
        data_buffer_depth=data_depth,
    )
    streamer = DataMaestro(design, GEOMETRY, [GEOMETRY.num_banks])
    streamer.configure(
        StreamerRuntimeConfig(
            base_address=line * LINE_STRIDE + bank * 8,
            temporal_bounds=(4,),
            temporal_strides=(LINE_STRIDE,),
            spatial_strides=(8,),
            bank_group_size=GEOMETRY.num_banks,
        )
    )
    return streamer


def queue_addresses(streamer, count=1):
    for _ in range(count):
        assert streamer.generate_addresses()


def stages(streamer):
    """Words the channel holds as (addressed, in flight, buffered)."""
    queued = streamer.bundles_generated - streamer.requests_issued
    return queued, outstanding(streamer), len(streamer.fifos[0])


def outstanding(streamer):
    """Requests issued on the channel and not yet delivered to it."""
    delivered = streamer.ports[0].delivered if streamer.ports else 0
    return streamer.requests_issued - delivered


def cycle(memory, streamers):
    """One cycle with the AGU held back: deliver, issue, arbitrate."""
    memory.deliver()
    for streamer in streamers:
        streamer.issue_requests(memory)
    memory.step()


class TestReadChannel:
    def test_issue_requires_address(self):
        streamer = make_streamer()
        memory = MemorySubsystem(GEOMETRY)
        assert streamer.issue_requests(memory) == 0
        assert streamer.requests_issued == 0

    def test_read_data_lands_in_fifo(self):
        streamer = make_streamer()
        memory = MemorySubsystem(GEOMETRY)
        memory.scratchpad.backdoor_write(0, np.arange(8, dtype=np.uint8), group_size=4)
        queue_addresses(streamer)
        for _ in range(3):
            cycle(memory, [streamer])
        assert len(streamer.fifos[0]) == 1 and streamer.output_valid()
        assert np.array_equal(streamer.pop_output(), np.arange(8, dtype=np.uint8))

    def test_orm_credits_limit_outstanding_requests(self):
        """No more requests in flight than free data-FIFO slots."""
        streamer = make_streamer(data_depth=2)
        memory = MemorySubsystem(GEOMETRY)
        queue_addresses(streamer, 4)
        # Issue without ever draining the data FIFO.
        for _ in range(6):
            cycle(memory, [streamer])
        # With a depth-2 FIFO the channel can never have more than 2
        # requests outstanding or buffered, so only 2 are ever issued.
        assert streamer.requests_issued == 2
        assert len(streamer.fifos[0]) == 2
        assert streamer.credit_stall_cycles > 0
        assert streamer.credit_stalled() and not streamer.can_issue()

    def test_credits_replenish_after_pop(self):
        streamer = make_streamer(data_depth=1)
        memory = MemorySubsystem(GEOMETRY)
        queue_addresses(streamer, 2)
        for _ in range(3):
            cycle(memory, [streamer])
        assert streamer.requests_issued == 1
        streamer.pop_output()
        for _ in range(3):
            cycle(memory, [streamer])
        assert streamer.requests_issued == 2

    def test_busy_tracks_all_stages(self):
        streamer = make_streamer()
        memory = MemorySubsystem(GEOMETRY)
        assert stages(streamer) == (0, 0, 0)
        queue_addresses(streamer)
        assert stages(streamer) == (1, 0, 0)
        streamer.issue_requests(memory)
        assert stages(streamer) == (0, 1, 0)
        for _ in range(3):
            cycle(memory, [streamer])
        assert stages(streamer) == (0, 0, 1)  # data waiting in FIFO
        streamer.pop_output()
        assert stages(streamer) == (0, 0, 0)
        queue_addresses(streamer, 3)  # the whole stream: busy is its channels'
        assert streamer.busy
        for _ in range(8):
            cycle(memory, [streamer])
            if streamer.output_valid():
                streamer.pop_output()
        assert stages(streamer) == (0, 0, 0) and not streamer.busy

    def test_reset_clears_state(self):
        streamer = make_streamer()
        memory = MemorySubsystem(GEOMETRY)
        queue_addresses(streamer, 2)
        for _ in range(3):
            cycle(memory, [streamer])
        assert streamer.requests_issued == streamer.ports[0].delivered == 2
        # A new launch builds its channels fresh: counters from zero, FIFO
        # statistics and the delivery count (it lives on the port, which is
        # bound again) included.
        (fifo,) = streamer.fifos
        streamer.configure(streamer.runtime)
        (fresh,) = streamer.fifos
        assert fresh is not fifo and not streamer.ports
        assert set(streamer.channel_statistics()["dm_t.ch0"].values()) == {0}
        assert fresh.is_empty and outstanding(streamer) == 0
        assert fresh.total_pushes == fresh.total_pops == 0
        # The address FIFO is the streamer's bundle count minus the channel's
        # cursor: it empties when the streamer is programmed again.
        assert stages(streamer) == (0, 0, 0)
        streamer.issue_requests(memory)
        assert streamer.ports[0].delivered == 0 and outstanding(streamer) == 0


class TestMemoryRegistration:
    def test_collect_before_any_submit_does_not_register(self):
        """A channel joins arbitration at its first issue, not by binding."""
        first = make_streamer(name="dm_a", line=1)
        second = make_streamer(name="dm_b")
        memory = MemorySubsystem(GEOMETRY)
        assert first.issue_requests(memory) == 0  # binds, holds no address
        (port,) = first.ports
        assert port is not None and not port.registered
        assert memory.outstanding_count(port.name) == 0
        # Had binding registered ``first``, it would head the contender
        # list and win the first-ever arbitration of bank 0.
        queue_addresses(second)
        queue_addresses(first)
        assert second.issue_requests(memory) == 1 and first.issue_requests(memory) == 1
        memory.step()
        assert memory.requester_stats(second.ports[0].name)["granted"] == 1
        assert memory.requester_stats(port.name)["granted"] == 0


class TestWriteChannel:
    def test_write_requires_address_and_data(self):
        streamer = make_streamer(mode=StreamerMode.WRITE, bank=1, line=2)
        memory = MemorySubsystem(GEOMETRY)
        streamer.push_input(np.full(8, 5, dtype=np.uint8))
        assert streamer.issue_requests(memory) == 0
        queue_addresses(streamer)
        assert streamer.issue_requests(memory) == 1

    def test_write_reaches_memory(self):
        streamer = make_streamer(mode=StreamerMode.WRITE, bank=1, line=2)
        memory = MemorySubsystem(GEOMETRY)
        queue_addresses(streamer)
        streamer.push_input(np.full(8, 9, dtype=np.uint8))
        for _ in range(3):
            cycle(memory, [streamer])
        stored = memory.scratchpad.storage[1, 2]
        assert np.array_equal(stored, np.full(8, 9, dtype=np.uint8))
        assert stages(streamer) == (0, 0, 0)  # ack received

    def test_input_space_available(self):
        streamer = make_streamer(mode=StreamerMode.WRITE, data_depth=1)
        assert streamer.input_ready()
        streamer.push_input(np.zeros(8, dtype=np.uint8))
        assert streamer.fifos[0].is_full and not streamer.input_ready()


class TestStatistics:
    def test_statistics_dictionary(self):
        streamer = make_streamer()
        memory = MemorySubsystem(GEOMETRY)
        queue_addresses(streamer)
        for _ in range(3):
            cycle(memory, [streamer])
        stats = streamer.channel_statistics()["dm_t.ch0"]
        assert stats["requests_issued"] == 1
        assert stats["responses_received"] == 1
        assert stats["max_data_occupancy"] == 1
