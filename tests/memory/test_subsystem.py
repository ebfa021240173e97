"""Tests for crossbar arbitration, latency, conflicts and ordering."""

import gc

import numpy as np
import pytest

from repro.core import DataMaestro, StreamerDesign, StreamerMode, StreamerRuntimeConfig
from repro.memory import (
    BankGeometry,
    BankLocation,
    MemoryRequest,
    MemoryResponse,
    MemorySubsystem,
)
from repro.sim.fifo import FifoError

GEOMETRY = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=8)


def make_subsystem(latency=1):
    return MemorySubsystem(GEOMETRY, read_latency=latency)


def read_request(requester, bank, line=0, tag=None):
    return MemoryRequest(requester=requester, is_write=False, bank=bank, line=line, tag=tag)


def write_request(requester, bank, line, value):
    data = np.full(8, value, dtype=np.uint8)
    return MemoryRequest(requester=requester, is_write=True, bank=bank, line=line, data=data)


def run_cycles(memory, cycles):
    for _ in range(cycles):
        memory.deliver()
        memory.step()


class TestBasicTiming:
    def test_read_response_after_latency(self):
        memory = make_subsystem(latency=1)
        memory.scratchpad.backdoor_write(0, np.arange(8, dtype=np.uint8), group_size=4)
        memory.submit(read_request("ch0", bank=0, line=0, tag=42))
        # Cycle 0: arbitrate/grant.
        memory.deliver()
        assert memory.collect(memory.bind("ch0")) == []
        memory.step()
        # Cycle 1: response matured.
        memory.deliver()
        responses = memory.collect(memory.bind("ch0"))
        assert len(responses) == 1
        assert responses[0].tag == 42
        assert np.array_equal(responses[0].data, np.arange(8, dtype=np.uint8))

    def test_longer_latency(self):
        memory = make_subsystem(latency=3)
        memory.submit(read_request("ch0", bank=1))
        collected = []
        for cycle in range(5):
            memory.deliver()
            collected.extend((cycle, r) for r in memory.collect(memory.bind("ch0")))
            memory.step()
        assert len(collected) == 1
        assert collected[0][0] == 3

    def test_write_commits_and_acknowledges(self):
        memory = make_subsystem()
        memory.submit(write_request("ch0", bank=2, line=3, value=7))
        run_cycles(memory, 2)
        memory.deliver()
        stored = memory.scratchpad.storage[2, 3]
        assert np.array_equal(stored, np.full(8, 7, dtype=np.uint8))
        assert memory.total_writes == 1

    def test_invalid_latency_rejected(self):
        with pytest.raises(ValueError):
            MemorySubsystem(GEOMETRY, read_latency=0)

    def test_invalid_bank_rejected(self):
        memory = make_subsystem()
        with pytest.raises(ValueError):
            memory.submit(read_request("ch0", bank=99))

    @pytest.mark.parametrize("bank", [-1, GEOMETRY.num_banks], ids=["below", "above"])
    def test_both_bank_bounds_rejected(self, bank):
        """Bank -1 would index the last bank, bank ``num_banks`` none."""
        memory = make_subsystem()
        with pytest.raises(ValueError, match=rf"^bank {bank} out of range \(num_banks=4\)$"):
            memory.submit(read_request("ch0", bank=bank))
        assert memory.pending_requests == 0 and memory.next_event_cycle() is None

    @pytest.mark.parametrize(
        "lowest, highest, bank", [(-1, 2, -1), (0, 4, 4), (-2, 9, -2)]
    )
    def test_check_banks_names_the_offending_bank(self, lowest, highest, bank):
        """A window's range check names the bank out of range, the low one
        first."""
        memory = make_subsystem()
        memory.check_banks(0, GEOMETRY.num_banks - 1)
        with pytest.raises(ValueError, match=rf"^bank {bank} out of range"):
            memory.check_banks(lowest, highest)

    def test_write_without_data_rejected_at_submit(self):
        """Rejected before it queues: no grant, no arbiter move, still idle."""
        memory = make_subsystem()
        with pytest.raises(ValueError, match="without data"):
            memory.submit(MemoryRequest("ch0", True, bank=1, line=2))
        memory.step()
        assert memory.next_event_cycle() is None
        assert memory.pending_requests == 0 and memory.pending_count("ch0") == 0
        assert memory.requester_stats("ch0") == {"granted": 0, "retries": 0}
        assert memory.total_writes == 0 and memory._last_grant == {}

    @pytest.mark.parametrize(
        "request_, error, message",
        [
            (MemoryRequest("ch0", False, bank=1, line=8), IndexError, "wordline 8"),
            (MemoryRequest("ch0", True, 1, 2, np.zeros(7, np.uint8)), ValueError, "8 bytes"),
            (
                MemoryRequest("ch0", True, 1, 2, np.zeros(8, np.uint8), np.ones(4, bool)),
                ValueError,
                "strobe must have 8 entries",
            ),
        ],
        ids=["wordline", "word_width", "strobe_shape"],
    )
    def test_malformed_request_rejected_at_submit(self, request_, error, message):
        """What the bank would reject at the grant is rejected before it
        queues, with the bank's message: nothing counted pending, still idle."""
        memory = make_subsystem()
        with pytest.raises(error, match=message):
            memory.submit(request_)
        assert memory.pending_requests == 0 and memory.next_event_cycle() is None
        memory.step()
        assert memory.next_event_cycle() is None and memory.requester_stats("ch0")["granted"] == 0


class TestArbitration:
    def test_no_conflict_for_distinct_banks(self):
        memory = make_subsystem()
        memory.submit(read_request("a", bank=0))
        memory.submit(read_request("b", bank=1))
        memory.deliver()
        memory.step()
        assert memory.total_conflicts == 0
        assert memory.total_reads == 2

    def test_same_bank_conflict_serializes(self):
        memory = make_subsystem()
        memory.submit(read_request("a", bank=0))
        memory.submit(read_request("b", bank=0))
        memory.deliver()
        memory.step()
        # Only one of the two was granted this cycle.
        assert memory.total_reads == 1
        assert memory.total_conflicts == 1
        memory.deliver()
        memory.step()
        assert memory.total_reads == 2

    def test_round_robin_fairness(self):
        """Two requesters fighting over one bank get alternating grants."""
        memory = make_subsystem()
        for _ in range(6):
            memory.submit(read_request("a", bank=0))
            memory.submit(read_request("b", bank=0))
        grant_order = []
        for _ in range(12):
            before_a = memory.requester_stats("a")["granted"]
            before_b = memory.requester_stats("b")["granted"]
            memory.deliver()
            memory.step()
            if memory.requester_stats("a")["granted"] > before_a:
                grant_order.append("a")
            if memory.requester_stats("b")["granted"] > before_b:
                grant_order.append("b")
        assert grant_order.count("a") == 6
        assert grant_order.count("b") == 6
        # No requester is granted twice in a row while the other waits.
        assert all(grant_order[i] != grant_order[i + 1] for i in range(10))

    def test_per_requester_ordering_preserved(self):
        """A requester's responses arrive in submission order."""
        memory = make_subsystem()
        for line in range(4):
            memory.scratchpad.backdoor_write(
                line * 4 * 8, np.full(8, line, dtype=np.uint8), group_size=4
            )
        for line in range(4):
            memory.submit(read_request("ch0", bank=0, line=line, tag=line))
        tags = []
        for _ in range(10):
            memory.deliver()
            tags.extend(r.tag for r in memory.collect(memory.bind("ch0")))
            memory.step()
        assert tags == [0, 1, 2, 3]

    def test_outstanding_and_pending_counts(self):
        memory = make_subsystem()
        memory.submit(read_request("a", bank=0))
        memory.submit(read_request("a", bank=0))
        assert memory.pending_count("a") == 2
        assert memory.outstanding_count("a") == 2
        memory.deliver()
        memory.step()
        assert memory.pending_count("a") == 1
        assert memory.outstanding_count("a") == 2
        run_cycles(memory, 3)
        memory.deliver()
        memory.collect(memory.bind("a"))
        assert memory.outstanding_count("a") == 0

    def test_idle_detection(self):
        memory = make_subsystem()
        assert memory.next_event_cycle() is None
        memory.submit(read_request("a", bank=0))
        assert not memory.next_event_cycle() is None
        run_cycles(memory, 3)
        memory.deliver()
        memory.collect(memory.bind("a"))
        assert memory.next_event_cycle() is None


class TestWordSnapshots:
    """A read word is a copy of its wordline taken at the grant."""

    def test_by_name_read_granted_before_a_write_keeps_the_old_word(self):
        memory = make_subsystem(latency=3)
        memory.scratchpad.storage[1, 2] = 5
        memory.submit(read_request("r", bank=1, line=2))
        run_cycles(memory, 1)  # the read is granted
        memory.submit(write_request("w", bank=1, line=2, value=9))
        run_cycles(memory, 1)  # the write lands while the read is in flight
        assert memory.scratchpad.storage[1, 2].tolist() == [9] * 8
        run_cycles(memory, 2)
        memory.deliver()
        (response,) = memory.collect(memory.bind("r"))
        assert list(response.data) == [5] * 8

    def test_buffered_stream_word_survives_a_later_write(self):
        memory = make_subsystem()
        memory.scratchpad.storage[:, 0] = 3
        streamer = TestStreamChannelPorts().reader_with_a_word_in_flight(memory)
        ((_, (_,), _),) = memory._in_flight  # one entry of one word
        ((bank,),), ((line,),) = streamer._decode(0, 1)
        assert memory.deliver() == 1 and streamer.output_valid()
        memory.submit(write_request("w", bank=bank, line=line, value=7))
        run_cycles(memory, 2)
        assert memory.scratchpad.storage[bank, line].tolist() == [7] * 8
        assert streamer.pop_output().tolist() == [3] * 8


class TestReplayPointers:
    """A steady span's rotating-arbiter pointers, set in one pass."""

    @pytest.mark.parametrize("channels", [1, 4, 8])
    def test_each_bank_points_at_the_port_granted_there_last(self, channels):
        rng = np.random.default_rng(channels)
        geometry = BankGeometry(num_banks=16, bank_width_bytes=8, bank_depth=8)
        memory = MemorySubsystem(geometry)
        # Every bank points somewhere first; the span moves only its own.
        memory.replay_pointers(np.arange(16)[:, np.newaxis], [memory.bind("old")])
        before = {bank: "old" for bank in range(16)}
        ports = [memory.bind(f"p{column}") for column in range(channels)]
        for _ in range(3):
            # Few banks, so every bank repeats across rows and columns.
            banks = rng.integers(0, 11, size=(rng.integers(1, 20), channels))
            memory.replay_pointers(banks, ports)
            for row in banks.tolist():
                for column, bank in enumerate(row):
                    before[bank] = ports[column].name
            assert memory.grant_pointers() == before

    def test_pointers_count_nothing(self):
        memory = make_subsystem()
        ports = [memory.bind("x"), memory.bind("y")]
        memory.replay_pointers(np.array([[0, 3], [3, 3]]), ports)
        counts = [(bank.read_count, bank.write_count) for bank in memory.scratchpad.banks]
        assert counts == [(0, 0)] * len(counts)
        assert memory.grant_pointers() == {0: "x", 3: "y"}


class TestBoundPorts:
    """Requesters hold ports; a port registers at its first submit only."""

    def test_first_contenders_granted_in_submit_order(self):
        """Registration order is behaviour: binding first must not win."""
        memory = make_subsystem()
        early = memory.bind("a")
        late = memory.bind("b")
        assert memory.collect(early) == []
        memory.submit(MemoryRequest("b", False, 0, 0, port=late))
        memory.submit(MemoryRequest("a", False, 0, 0, port=early))
        memory.step()  # no previous winner on bank 0: first registered wins
        assert memory.requester_stats("b")["granted"] == 1
        assert memory.requester_stats("a")["granted"] == 0
        memory.step()
        assert memory.requester_stats("a")["granted"] == 1

    def test_bind_returns_the_registered_port(self):
        memory = make_subsystem()
        memory.submit(read_request("a", bank=1, tag=7))
        port = memory.bind("a")
        assert memory.bind("a") is port and len(port.pending) == 1
        run_cycles(memory, 1)
        memory.deliver()
        assert [r.tag for r in memory.collect(port)] == [7]
        assert memory.collect(memory.bind("a")) == []

    def test_second_port_under_a_registered_name_is_rejected(self):
        memory = make_subsystem()
        stale = memory.bind("a")
        memory.submit(read_request("a", bank=0))  # registers a port of its own
        with pytest.raises(ValueError, match="two ports"):
            memory.submit(MemoryRequest("a", False, 0, 0, port=stale))

    def test_keyword_construction_still_works(self):
        request = MemoryRequest(requester="a", is_write=True, bank=1, line=2)
        assert (request.data, request.strobe, request.tag, request.port) == (None,) * 4
        response = MemoryResponse(
            requester="a", is_write=False, tag=3, data=None, ready_cycle=5
        )
        assert response.ready_cycle == 5 and response.port is None
        location = BankLocation(bank=1, line=2, byte_offset=3)
        assert (location.bank, location.line, location.byte_offset) == (1, 2, 3)


class TestStreamChannelPorts:
    """A bound stream channel's port delivers into the channel's data FIFO."""

    def reader_with_a_word_in_flight(self, memory):
        design = StreamerDesign(
            name="dm_t",
            mode=StreamerMode.READ,
            num_channels=1,
            spatial_bounds=(1,),
            temporal_dims=1,
            bank_width_bits=64,
            address_buffer_depth=2,
            data_buffer_depth=1,
        )
        streamer = DataMaestro(design, GEOMETRY, [GEOMETRY.num_banks])
        streamer.configure(
            StreamerRuntimeConfig(
                base_address=0,
                temporal_bounds=(4,),
                temporal_strides=(8,),
                spatial_strides=(8,),
                bank_group_size=GEOMETRY.num_banks,
            )
        )
        assert streamer.generate_addresses() and streamer.issue_requests(memory) == 1
        memory.step()
        return streamer

    def test_delivery_outlives_a_collected_streamer(self):
        """The port holds the data FIFO, not the streamer that owns it."""
        memory = make_subsystem()
        streamer = self.reader_with_a_word_in_flight(memory)
        fifo = streamer.fifos[0]
        del streamer
        gc.collect()
        assert memory.deliver() == 1
        assert len(fifo) == 1 and memory.outstanding_count("dm_t.ch0") == 0

    def test_delivery_below_the_high_water_mark_counts_its_push(self):
        """The second word lands below the FIFO's high-water mark, where
        ``deliver`` appends without ``Fifo.push``: it still counts."""
        memory = make_subsystem()
        streamer = self.reader_with_a_word_in_flight(memory)
        fifo = streamer.fifos[0]
        assert memory.deliver() == 1 and fifo.total_pushes == 1
        streamer.pop_output()
        assert streamer.generate_addresses() and streamer.issue_requests(memory) == 1
        memory.step()
        assert memory.deliver() == 1
        assert (fifo.total_pushes, fifo.total_pops, fifo.max_occupancy) == (2, 1, 1)
        assert len(fifo) == 1

    def test_delivery_into_a_full_data_fifo_names_the_fifo(self):
        """The ORM reserves the slot at issue; a read without one is caught."""
        memory = make_subsystem()
        streamer = self.reader_with_a_word_in_flight(memory)
        assert memory.deliver() == 1 and streamer.fifos[0].is_full
        assert streamer.generate_addresses() and streamer.credit_stalled()
        # A row read past the credit, planted in flight: its delivery fills
        # the channel's FIFO past its depth.
        memory._in_flight.append((memory.cycle, streamer.ports, streamer))
        with pytest.raises(FifoError, match="dm_t.ch0.data"):
            memory.deliver()

    def test_a_request_under_a_stream_channel_name_is_rejected(self):
        """A stream channel's words are its stream's rows, never requests."""
        memory = make_subsystem()
        streamer = self.reader_with_a_word_in_flight(memory)
        (port,) = streamer.ports
        for request in (
            MemoryRequest(port.name, False, 1, 0, port=port),
            MemoryRequest(port.name, False, 1, 0),
        ):
            with pytest.raises(ValueError, match="dm_t.ch0.*stream's channel"):
                memory.submit(request)
        assert memory.pending_count(port.name) == 0 and not port.pending


class TestDmaAccounting:
    def test_uncounted_access_hook(self):
        memory = make_subsystem()
        memory.add_uncounted_accesses(reads=10, writes=5)
        assert memory.total_reads == 10
        assert memory.total_writes == 5
        assert memory.dma_reads == 10
