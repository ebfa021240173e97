"""Parked streamers: every wake-up source, every reader of a lazily charged counter.

``AcceleratorSystem.step`` skips all three phases of a streamer whose last
cycle moved nothing and charges the cycles it sat out when it wakes
(``docs/ENGINE.md``, "Parked streamers").  The reference here is *not*
``step``: it enters every phase of every streamer every cycle through the
public phase methods, which is what per-cycle stepping means.  The wake-up
hooks on their own are unit-tested in ``tests/core/test_streamer.py``.
"""

import dataclasses
import sys
from collections import Counter

from repro.compiler import compile_workload
from repro.core import FeatureSet
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import GemmWorkload

DESIGN = datamaestro_evaluation_system()
SLOW = dataclasses.replace(
    DESIGN, memory=dataclasses.replace(DESIGN.memory, read_latency=24)
)
PHASES = ("begin_cycle", "generate_addresses", "issue_requests")


def loaded(workload, features, design=DESIGN):
    system = AcceleratorSystem(design)
    system.load_program(compile_workload(workload, design, features))
    return system


def prefetch_gemm(design=DESIGN, **shape):
    shape = {"m": 32, "n": 32, "k": 64, **shape}
    workload = GemmWorkload(name="park_prefetch", **shape)
    return loaded(workload, FeatureSet.all_enabled(), design)


def active(system):
    return [system.streamers[port] for port in system._active_ports]


def reference_step(system):
    """One cycle with no streamer ever skipped — per-cycle stepping."""
    memory = system.memory
    for streamer in active(system):
        streamer.begin_cycle()
    memory.deliver()
    if system._program.uses_quantizer:
        system.quantizer.step()
    system.gemm_core.step()
    for streamer in active(system):
        streamer.generate_addresses()
    for streamer in active(system):
        streamer.issue_requests(memory)
    memory.step()
    system._cycles += 1
    return not system.finished


def raw_stalls(streamer):
    """The lazily charged counter, read without settling anything."""
    return streamer.credit_stall_cycles


def settled_counters(system):
    return {s.name: s.channel_statistics() for s in active(system)}


def step_both_until(system, reference, condition, limit=2000):
    for _ in range(limit):
        if condition():
            return
        assert system.step() and reference_step(reference)
    raise AssertionError("condition never reached")


class TestParking:
    def test_credit_stalled_streamer_parks_after_one_idle_cycle_and_is_not_entered(self):
        system = prefetch_gemm(k=128)
        streamer = system.streamers["C"]  # data FIFO depth 1: prefetches one tile ahead
        entered = Counter()
        for phase in PHASES:
            method = getattr(streamer, phase)

            def counted(*args, _method=method, _phase=phase):
                entered[_phase] += 1
                return _method(*args)

            setattr(streamer, phase, counted)
        snapshot = None
        for _ in range(500):
            assert system.step()
            # Parked by exactly the cycles that moved nothing, the first one included.
            assert streamer.parked == (streamer.cycle_activity == 0)
            if streamer.parked and streamer.parked_cycles == 0:
                snapshot = dict(entered)  # the cycle that parked it was its last one entered
            if streamer.parked_cycles == 5:
                break
        assert streamer.parked_cycles == 5 and dict(entered) == snapshot
        assert streamer.credit_stalled()

    def test_every_wake_up_source_charges_what_per_cycle_stepping_counted(self):
        # 24 cycles of read latency: streamers wait for memory, not only for the core.
        system, reference = (prefetch_gemm(SLOW, k=256) for _ in range(2))
        sources = Counter()
        for port, streamer in system.streamers.items():
            wake = streamer.wake

            def checked(_wake=wake, _port=port, _streamer=streamer):
                sources[sys._getframe(1).f_code.co_name] += _streamer.parked_cycles > 0
                _wake()
                # ``reference`` has finished the previous cycle: both sides have
                # now charged every cycle before this one, and only those.
                assert raw_stalls(_streamer) == raw_stalls(reference.streamers[_port])

            streamer.wake = checked

        # A delivery is not a wake-up source: it leaves a parked streamer
        # parked, owing exactly what the reference has counted so far.
        deliver = system.memory.deliver
        slept_through = Counter()

        def received(streamer):
            return sum(port.delivered for port in streamer.ports)

        def checked_deliver():
            parked = {
                port: (streamer.parked_cycles, received(streamer))
                for port, streamer in system.streamers.items()
                if streamer.parked
            }
            count = deliver()
            for port, (owed, before) in parked.items():
                streamer = system.streamers[port]
                if received(streamer) == before:
                    continue
                slept_through[port] += 1
                assert streamer.parked and streamer.parked_cycles == owed
                owing = streamer.credit_stall_cycles + owed * streamer.credit_stalled()
                assert owing == raw_stalls(reference.streamers[port])
            return count

        system.memory.deliver = checked_deliver
        busy = True
        while busy:
            busy = system.step()
            assert reference_step(reference) == busy
        assert {s for s, n in sources.items() if n} == {"pop_word", "push_input"}
        assert slept_through["C"] and slept_through["D"]
        assert settled_counters(system) == settled_counters(reference)
        for ours, theirs in zip(active(system), active(reference)):
            assert ours.statistics(system.memory) == theirs.statistics(reference.memory)
        assert system.gemm_core.stall_cycles == reference.gemm_core.stall_cycles
        assert system._cycles == reference._cycles


class TestReadersSeeSettledCounters:
    def parked_pair(self, **kwargs):
        """(system, reference) with C parked and owing at least three cycles."""
        system, reference = prefetch_gemm(**kwargs), prefetch_gemm(**kwargs)
        streamer = system.streamers["C"]
        step_both_until(system, reference, lambda: streamer.parked_cycles >= 3)
        assert raw_stalls(streamer) != raw_stalls(reference.streamers["C"])
        return system, reference

    def test_channel_statistics_and_statistics(self):
        for read in ("channel_statistics", "statistics"):
            system, reference = self.parked_pair()
            streamer = system.streamers["C"]
            getattr(streamer, read)()
            assert streamer.parked and streamer.parked_cycles == 0
            assert raw_stalls(streamer) == raw_stalls(reference.streamers["C"])
            assert streamer.channel_statistics() == reference.streamers["C"].channel_statistics()

    def test_system_advance(self):
        system, reference = self.parked_pair(design=SLOW)
        step_both_until(
            system,
            reference,
            lambda: system._cycles
            and system.last_step_activity == 0
            and system.next_event_cycle() > system._cycles + 5
            and system.streamers["C"].parked_cycles,
        )
        system.advance(5)
        for _ in range(5):
            assert reference_step(reference)
        assert settled_counters(system) == settled_counters(reference)
        assert system.gemm_core.stall_cycles == reference.gemm_core.stall_cycles

    def test_steady_span_settles_and_a_macro_jump_leaves_nobody_parked(self):
        system = prefetch_gemm(m=64, n=64)
        settled_something = jumps = 0
        while system.step():
            owing = [s for s in system._live if s.parked_cycles]
            if not system._tile_completed:
                continue
            span = system.steady_span(10**6)
            assert not any(s.parked_cycles for s in system._live)
            settled_something += bool(owing)
            if span:
                system.advance_active(span)
                jumps += 1
                assert not any(s.parked for s in active(system))
        assert settled_something and jumps
        lockstep = prefetch_gemm(m=64, n=64)
        while reference_step(lockstep):
            pass
        assert system._cycles == lockstep._cycles
        assert settled_counters(system) == settled_counters(lockstep)
