"""Streamer-level tests: wide-word streaming, prefetch mode, extensions."""

import numpy as np
import pytest

from repro.core import (
    DataMaestro,
    ExtensionSpec,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
    reference_address_sequence,
)
from repro.memory import BankGeometry, MemorySubsystem
from repro.memory.subsystem import MemoryRequest

GEOMETRY = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=64)


def read_design(name="dm_r", extensions=(), data_depth=8):
    return StreamerDesign(
        name=name,
        mode=StreamerMode.READ,
        num_channels=2,
        spatial_bounds=(2,),
        temporal_dims=3,
        bank_width_bits=64,
        address_buffer_depth=8,
        data_buffer_depth=data_depth,
        extensions=tuple(extensions),
    )


def write_design(name="dm_w"):
    return StreamerDesign(
        name=name,
        mode=StreamerMode.WRITE,
        num_channels=2,
        spatial_bounds=(2,),
        temporal_dims=2,
        bank_width_bits=64,
        address_buffer_depth=8,
        data_buffer_depth=4,
    )


def linear_runtime(steps=8, group_size=8, **overrides):
    params = dict(
        base_address=0,
        temporal_bounds=(steps,),
        temporal_strides=(16,),
        spatial_strides=(8,),
        bank_group_size=group_size,
    )
    params.update(overrides)
    return StreamerRuntimeConfig(**params)


def fill_memory(memory, num_bytes=1024, group_size=8):
    data = (np.arange(num_bytes, dtype=np.int64) % 251).astype(np.uint8)
    memory.scratchpad.backdoor_write(0, data, group_size=group_size)
    return data


def drain_read_streamer(streamer, memory, max_cycles=5000):
    """Mimic the system loop for a single read streamer; collect all words."""
    words = []
    cycles = 0
    while not streamer.done:
        if cycles > max_cycles:
            raise AssertionError("streamer did not finish (possible deadlock)")
        streamer.begin_cycle()
        memory.deliver()
        if streamer.output_valid():
            words.append(streamer.pop_output())
        streamer.generate_addresses()
        streamer.issue_requests(memory)
        memory.step()
        cycles += 1
    return words, cycles


def drive_write_streamer(streamer, memory, words, max_cycles=5000):
    cycles = 0
    pushed = 0
    while not (streamer.done and pushed == len(words)):
        if cycles > max_cycles:
            raise AssertionError("write streamer did not finish")
        streamer.begin_cycle()
        memory.deliver()
        if pushed < len(words) and streamer.input_ready():
            streamer.push_input(words[pushed])
            pushed += 1
        streamer.generate_addresses()
        streamer.issue_requests(memory)
        memory.step()
        cycles += 1
    return cycles


class TestReadStreaming:
    def test_streams_expected_data(self):
        memory = MemorySubsystem(GEOMETRY)
        data = fill_memory(memory)
        streamer = DataMaestro(read_design(), GEOMETRY, [8, 2, 1])
        runtime = linear_runtime(steps=8)
        streamer.configure(runtime)
        words, _ = drain_read_streamer(streamer, memory)
        assert len(words) == 8
        expected_addresses = reference_address_sequence(
            runtime.temporal_bounds,
            runtime.temporal_strides,
            (2,),
            runtime.spatial_strides,
        )
        for word, addresses in zip(words, expected_addresses):
            expected = np.concatenate([data[a : a + 8] for a in addresses])
            assert np.array_equal(word, expected)

    def test_streaming_under_non_interleaved_mode(self):
        memory = MemorySubsystem(GEOMETRY)
        data = (np.arange(512, dtype=np.int64) % 253).astype(np.uint8)
        memory.scratchpad.backdoor_write(0, data, group_size=1)
        streamer = DataMaestro(read_design(), GEOMETRY, [8, 2, 1])
        runtime = linear_runtime(steps=4, group_size=1)
        streamer.configure(runtime)
        words, _ = drain_read_streamer(streamer, memory)
        flat = np.concatenate(words)
        assert np.array_equal(flat, data[:64])

    def test_words_streamed_counter(self):
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=5))
        words, _ = drain_read_streamer(streamer, memory)
        assert streamer.words_streamed == 5
        assert streamer.bundles_generated == 5

    def test_prefetch_hides_latency(self):
        """With prefetch the streamer is much faster than without."""
        steps = 32

        def run(prefetch):
            memory = MemorySubsystem(GEOMETRY)
            fill_memory(memory)
            streamer = DataMaestro(read_design(), GEOMETRY, [8])
            streamer.configure(linear_runtime(steps=steps), prefetch_enabled=prefetch)
            _, cycles = drain_read_streamer(streamer, memory)
            return cycles

        cycles_with = run(True)
        cycles_without = run(False)
        # Prefetch pipelines request issue and data return; without it every
        # word pays the full round trip.
        assert cycles_without >= 2 * steps
        assert cycles_with <= steps + 10
        assert cycles_without > cycles_with

    def test_pop_without_valid_raises(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=1))
        with pytest.raises(RuntimeError):
            streamer.pop_output()

    def test_statistics_report(self):
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=4))
        drain_read_streamer(streamer, memory)
        stats = streamer.statistics(memory)
        assert stats.words_streamed == 4
        assert stats.requests_issued == 8  # 2 channels x 4 steps
        assert stats.requests_granted == 8


class TestExtensionsInStreamer:
    def test_transposer_applied_to_output(self):
        memory = MemorySubsystem(GEOMETRY)
        data = fill_memory(memory)
        design = read_design(
            extensions=[ExtensionSpec.make("transposer", rows=4, cols=4, element_bytes=1)]
        )
        streamer = DataMaestro(design, GEOMETRY, [8])
        runtime = linear_runtime(
            steps=2,
            extension_enables=(True,),
            extension_params=(("transposer", (("rows", 4), ("cols", 4), ("element_bytes", 1))),),
        )
        streamer.configure(runtime)
        words, _ = drain_read_streamer(streamer, memory)
        raw = np.concatenate([data[0:8], data[8:16]])
        expected = raw.reshape(4, 4).T.reshape(-1)
        assert np.array_equal(words[0], expected)

    def test_transposer_bypass(self):
        memory = MemorySubsystem(GEOMETRY)
        data = fill_memory(memory)
        design = read_design(
            extensions=[ExtensionSpec.make("transposer", rows=4, cols=4, element_bytes=1)]
        )
        streamer = DataMaestro(design, GEOMETRY, [8])
        runtime = linear_runtime(steps=1, extension_enables=(False,))
        streamer.configure(runtime)
        words, _ = drain_read_streamer(streamer, memory)
        assert np.array_equal(words[0], np.concatenate([data[0:8], data[8:16]]))

    def test_broadcaster_reduces_fetches_and_expands_word(self):
        memory = MemorySubsystem(GEOMETRY)
        data = fill_memory(memory)
        design = read_design(extensions=[ExtensionSpec.make("broadcaster", factor=2)])
        streamer = DataMaestro(design, GEOMETRY, [8])
        runtime = linear_runtime(
            steps=4,
            active_channels=1,
            extension_enables=(True,),
            extension_params=(("broadcaster", (("factor", 2),)),),
        )
        streamer.configure(runtime)
        words, _ = drain_read_streamer(streamer, memory)
        # Only one channel fetches (4 requests total), but the accelerator
        # still receives full 16-byte words.
        assert streamer.statistics(memory).requests_issued == 4
        for step, word in enumerate(words):
            narrow = data[step * 16 : step * 16 + 8]
            assert np.array_equal(word, np.tile(narrow, 2))


class TestWriteStreaming:
    def test_written_data_lands_in_memory(self):
        memory = MemorySubsystem(GEOMETRY)
        streamer = DataMaestro(write_design(), GEOMETRY, [8])
        runtime = linear_runtime(steps=4)
        streamer.configure(runtime)
        words = [np.full(16, value, dtype=np.uint8) for value in (1, 2, 3, 4)]
        drive_write_streamer(streamer, memory, words)
        for step, word in enumerate(words):
            stored = memory.scratchpad.backdoor_read(step * 16, 16, group_size=8)
            assert np.array_equal(stored, word)

    def test_push_wrong_size_raises(self):
        memory = MemorySubsystem(GEOMETRY)
        streamer = DataMaestro(write_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=1))
        streamer.generate_addresses()
        with pytest.raises(ValueError):
            streamer.push_input(np.zeros(10, dtype=np.uint8))

    def test_push_when_not_ready_raises(self):
        streamer = DataMaestro(write_design(), GEOMETRY, [8])
        # Not configured yet -> never ready.
        with pytest.raises(RuntimeError):
            streamer.push_input(np.zeros(16, dtype=np.uint8))


class TestIdleChannels:
    """Idle channels cost nothing, and skipping them changes no counter."""

    def test_idle_channels_are_not_visited(self):
        memory = MemorySubsystem(GEOMETRY)
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=4))
        streamer.bind(memory)
        # No address queued: the issue phase may not look at a channel's
        # port or data FIFO (either would raise here).
        streamer.ports[:] = [None] * len(streamer.ports)
        streamer.fifos[:] = [None] * len(streamer.fifos)
        assert streamer.issue_requests(memory) == 0

    def test_stalled_accounting_matches_bulk_advance(self):
        """Per-cycle stepping of a credit-stalled streamer == advance(n)."""

        def stalled(extra_cycles):
            memory = MemorySubsystem(GEOMETRY)
            fill_memory(memory)
            streamer = DataMaestro(read_design(data_depth=1), GEOMETRY, [8])
            streamer.configure(linear_runtime(steps=16))
            for _ in range(12 + extra_cycles):  # nobody pops: credits run out
                streamer.begin_cycle()
                memory.deliver()
                streamer.generate_addresses()
                streamer.issue_requests(memory)
                memory.step()
            return memory, streamer

        _, stepped = stalled(extra_cycles=20)
        memory, jumped = stalled(extra_cycles=0)
        assert memory.next_event_cycle() is None  # a fixpoint: nothing in flight
        jumped.advance(20)
        assert jumped.channel_statistics() == stepped.channel_statistics()
        assert jumped.credit_stall_cycles >= 20


class TestChannelsDivergeAtTheGrant:
    def test_a_contended_channel_lags_in_grants_not_in_issues(self):
        """The issue decision is the streamer's: both channels issue every
        word on the same cycle.  Two by-name requesters holding a request on
        each of channel 0's banks win half its arbitrations (the rotating
        priority goes by name), so grants, retries and data-FIFO occupancy
        are where the channels differ."""
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=16))  # ch0 even banks, ch1 odd
        streamer.bind(memory)
        ports = streamer.ports
        hogs = [
            (bank, memory.bind(f"hog{bank}{copy}"))
            for bank in (0, 2, 4, 6)
            for copy in "ab"
        ]
        issued = ([], [])  # the cycles on which each port received a request
        history = []  # (grants, data-FIFO occupancies) after every cycle
        for cycle in range(200):
            if streamer.done:
                break
            streamer.begin_cycle()
            memory.deliver()
            if streamer.output_valid():
                streamer.pop_output()
            streamer.generate_addresses()
            before = [port.granted + memory.pending_count(port.name) for port in ports]
            streamer.issue_requests(memory)
            for index, port in enumerate(ports):
                if port.granted + memory.pending_count(port.name) > before[index]:
                    issued[index].append(cycle)
            for bank, hog in hogs:
                memory.collect(hog)
                if not hog.pending:
                    memory.submit(MemoryRequest(hog.name, False, bank, 0, port=hog))
            memory.step()
            history.append(
                (
                    tuple(port.granted for port in ports),
                    tuple(len(fifo) for fifo in streamer.fifos),
                )
            )
        assert streamer.done and streamer.words_streamed == 16
        assert issued[0] == issued[1] and len(issued[0]) == 16
        assert ports[0].retries > 0 and ports[1].retries == 0
        assert any(grants[0] < grants[1] for grants, _ in history)
        assert any(fifos[0] < fifos[1] for _, fifos in history)
        assert ports[0].granted == ports[1].granted == 16


class TestParkingHooks:
    def test_wake_hooks_settle_before_the_fifo_changes(self):
        """Each hook charges the cycles sat out against the state they were
        sat out in (``AcceleratorSystem.step`` is what parks and counts)."""

        def stalls(streamer):
            return [streamer.credit_stall_cycles for _ in streamer.fifos]

        def stalled(streamer):
            return [streamer.credit_stalled() for _ in streamer.fifos]

        # Delivery is not a hook: a response maturing for a parked streamer's
        # port fills the data FIFO and changes nothing the streamer decides on.
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        reader = DataMaestro(read_design(data_depth=1), GEOMETRY, [8])
        reader.configure(linear_runtime(steps=4))
        for _ in range(2):
            reader.generate_addresses()
        reader.issue_requests(memory)
        memory.step()
        assert stalled(reader) == [True, True]
        reader.parked, reader.parked_cycles = True, 7  # as the system would after 7 idle cycles
        assert memory.deliver() == 2 and reader.output_valid()
        assert reader.parked and reader.parked_cycles == 7
        assert stalls(reader) == [0, 0] and stalled(reader) == [True, True]
        # pop_output: credits as they stood *before* the pop are what get charged.
        reader.parked_cycles += 3
        reader.pop_output()
        assert not reader.parked and stalls(reader) == [10, 10]
        assert stalled(reader) == [False, False]
        # push_input: a write streamer holding addresses and no data.
        writer = DataMaestro(write_design(), GEOMETRY, [8])
        writer.configure(linear_runtime(steps=4))
        writer.generate_addresses()
        writer.parked, writer.parked_cycles = True, 4
        writer.push_input(np.zeros(16, dtype=np.uint8))
        assert not writer.parked and writer.parked_cycles == 0
        assert stalls(writer) == [0, 0]  # write channels have no credit stalls


class TestOutOfRangeStreams:
    def test_rejected_at_configure_with_port_address_and_capacity(self):
        streamer = DataMaestro(read_design(name="dm_far"), GEOMETRY, [8])
        capacity = GEOMETRY.capacity_bytes
        # In range for 15 of 16 steps: only the last bundle leaves the memory.
        runtime = linear_runtime(steps=16, base_address=capacity - 15 * 16)
        with pytest.raises(ValueError) as excinfo:
            streamer.configure(runtime)
        message = str(excinfo.value)
        assert "dm_far" in message
        assert hex(capacity + 8) in message and hex(capacity) in message

    def test_negative_reach_rejected(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        runtime = linear_runtime(steps=4, base_address=16, temporal_strides=(-16,))
        with pytest.raises(ValueError, match="outside the scratchpad"):
            streamer.configure(runtime)

    def test_stream_ending_on_the_last_word_is_accepted(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        capacity = GEOMETRY.capacity_bytes
        streamer.configure(linear_runtime(steps=16, base_address=capacity - 16 * 16))
        assert streamer.agu.total_bundles == 16


class TestConfiguration:
    def test_configure_validates_against_design(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        bad_runtime = linear_runtime(spatial_strides=(8, 8))
        with pytest.raises(ValueError):
            streamer.configure(bad_runtime)

    def test_unavailable_group_size_rejected(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        with pytest.raises(ValueError):
            streamer.configure(linear_runtime(group_size=4))

    def test_reconfiguration_resets_state(self):
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=2))
        drain_read_streamer(streamer, memory)
        streamer.configure(linear_runtime(steps=3))
        assert streamer.words_streamed == 0
        words, _ = drain_read_streamer(streamer, memory)
        assert len(words) == 3

    def test_second_launch_reports_only_its_own_traffic(self):
        """Counters are per kernel launch, on the channels as on the streamer."""
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        launches = []
        for _ in range(2):
            # A launch gets a fresh memory, as ``AcceleratorSystem.reset``
            # builds one: the grant / retry counters live on its ports.
            memory = MemorySubsystem(GEOMETRY)
            fill_memory(memory)
            streamer.configure(linear_runtime(steps=8))
            drain_read_streamer(streamer, memory)
            launches.append(
                (streamer.statistics(memory), streamer.channel_statistics())
            )
        assert launches[0][0].requests_issued == launches[0][0].requests_granted == 16
        assert launches[1] == launches[0]
        for port, fifo in zip(streamer.ports, streamer.fifos, strict=True):
            assert streamer.requests_issued == fifo.total_pops == 8
            assert port.delivered == 8
            assert streamer.requests_issued - port.delivered == 0
        # The ports outlive the launch in the memory; a re-bound one counts
        # its deliveries from zero again.
        streamer.configure(linear_runtime(steps=8))
        streamer.bind(memory)
        for port in streamer.ports:
            assert port.registered and port.delivered == 0
            assert streamer.requests_issued - port.delivered == 0

    def test_banks_keep_a_reprogrammed_streams_grants(self):
        """A bank counts a stream's grants from its cursors, which restart
        at ``configure``: the grants they held fold into the banks first,
        and a stream bound elsewhere counts on its new memory only."""
        memory = MemorySubsystem(GEOMETRY)
        fill_memory(memory)
        banks = memory.scratchpad.banks
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        streamer.configure(linear_runtime(steps=2))
        drain_read_streamer(streamer, memory)
        assert [bank.read_count for bank in banks] == [1, 1, 1, 1, 0, 0, 0, 0]
        # Drained to the cursors of the last count again, over other rows.
        streamer.configure(linear_runtime(steps=2, base_address=32))
        drain_read_streamer(streamer, memory)
        first = [bank.read_count for bank in banks]
        assert first == [1] * 8
        streamer.configure(linear_runtime(steps=3, base_address=128))
        assert [bank.read_count for bank in banks] == first
        drain_read_streamer(streamer, memory)
        second = [bank.read_count for bank in banks]
        assert sum(second) == 14 and second != first
        other = MemorySubsystem(GEOMETRY)
        fill_memory(other)
        streamer.configure(linear_runtime(steps=2))
        drain_read_streamer(streamer, other)
        assert [bank.read_count for bank in banks] == second
        assert sum(bank.read_count for bank in other.scratchpad.banks) == 4
        assert all(bank.write_count == 0 for bank in banks + other.scratchpad.banks)

    def test_unconfigured_streamer_is_not_busy(self):
        streamer = DataMaestro(read_design(), GEOMETRY, [8])
        assert not streamer.busy
        assert not streamer.configured
