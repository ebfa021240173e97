"""Unit tests of the simulation engines, the event protocol and the runtime
plumbing around the ``engine`` job field."""

import inspect

import pytest

from repro.baselines import create_baseline
from repro.compiler import compile_workload
from repro.core import FeatureSet
from repro.engine import (
    DEFAULT_ENGINE,
    EVENT_ENGINE,
    LOCKSTEP_ENGINE,
    EventDrivenEngine,
    LockstepEngine,
    available_engines,
    get_engine,
    supports_event_protocol,
    validate_engine,
)
from repro.engine import event as event_engine
from repro.memory.addressing import BankGeometry
from repro.memory.subsystem import MemoryRequest, MemorySubsystem
from repro.runtime import SimJob, Simulator
from repro.obs.trace import install_tracer, uninstall_tracer
from repro.sim import DEFAULT_CYCLE_BUDGET, DEFAULT_PROGRESS_INTERVAL, SimulationLimitError
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import GemmWorkload


class PlainTarget:
    """Steppable without the event protocol."""

    def __init__(self, cycles):
        self.remaining = cycles
        self.stepped = 0

    def step(self):
        self.stepped += 1
        self.remaining -= 1
        return self.remaining > 0


class BurstyTarget:
    """Event-protocol target: one active cycle, then a long timed wait."""

    def __init__(self, bursts, wait):
        self.bursts = bursts
        self.wait = wait
        self.cycle = 0
        self.fired = 0
        self.stepped = 0
        self.idle_applied = 0
        self.last_step_activity = 0
        self._next_fire = 0

    @property
    def done(self):
        return self.fired >= self.bursts

    def step(self):
        self.stepped += 1
        if not self.done and self.cycle == self._next_fire:
            self.fired += 1
            self.last_step_activity = 1
            self._next_fire = self.cycle + 1 + self.wait
        else:
            self.last_step_activity = 0
        self.cycle += 1
        return not self.done

    def next_event_cycle(self):
        return None if self.done else self._next_fire

    def advance(self, cycles):
        self.cycle += cycles
        self.idle_applied += cycles


class TestRegistry:
    def test_available_engines(self):
        assert available_engines() == [EVENT_ENGINE, LOCKSTEP_ENGINE]
        assert DEFAULT_ENGINE == EVENT_ENGINE

    def test_get_engine(self):
        assert isinstance(get_engine("event"), EventDrivenEngine)
        assert isinstance(get_engine("lockstep"), LockstepEngine)
        with pytest.raises(KeyError):
            get_engine("warp-drive")

    def test_validate_engine(self):
        assert validate_engine("event") == "event"
        with pytest.raises(ValueError):
            validate_engine("warp-drive")

    def test_protocol_detection(self):
        assert not supports_event_protocol(PlainTarget(3))
        assert supports_event_protocol(BurstyTarget(1, 1))


class TestEventScheduling:
    def test_skips_timed_waits_exactly(self):
        """3 bursts firing at cycles 0/100/200: 201 cycles in 5 real steps.

        Each wait costs one probe step (the fixpoint detection) and one bulk
        advance over the remaining 98 idle cycles.
        """
        target = BurstyTarget(bursts=3, wait=99)
        cycles = EventDrivenEngine().drive(target, max_cycles=10_000)
        assert cycles == 201
        assert target.idle_applied == 196  # two 98-cycle spans bulk-applied
        assert target.stepped == cycles - target.idle_applied == 5

    def test_matches_lockstep_cycle_count(self):
        event = BurstyTarget(bursts=5, wait=17)
        lockstep = BurstyTarget(bursts=5, wait=17)
        assert EventDrivenEngine().drive(event, max_cycles=10_000) == LockstepEngine().drive(
            lockstep, max_cycles=10_000
        )
        assert lockstep.stepped == event.stepped + event.idle_applied

    def test_plain_target_rejected(self):
        with pytest.raises(TypeError):
            EventDrivenEngine().drive(PlainTarget(3), max_cycles=10)

    def test_deadlock_fast_forwards_to_budget(self):
        class Stuck(BurstyTarget):
            def next_event_cycle(self):
                return None

        target = Stuck(bursts=2, wait=1)
        target._next_fire = -1  # never fires again
        with pytest.raises(SimulationLimitError) as excinfo:
            EventDrivenEngine().drive(target, max_cycles=1_000_000, describe="stuck sim")
        assert excinfo.value.cycles == 1_000_000
        assert "stuck sim" in str(excinfo.value)
        assert target.stepped == 1  # one fixpoint probe, then the fast path
        assert target.idle_applied == 1_000_000 - 1

    def test_budget_respected_mid_span(self):
        """An event beyond the budget must not jump past it."""
        target = BurstyTarget(bursts=2, wait=10_000)
        with pytest.raises(SimulationLimitError) as excinfo:
            EventDrivenEngine().drive(target, max_cycles=500)
        assert excinfo.value.cycles == 500

    def test_progress_callback_fires_across_bulk_advances(self):
        seen = []
        target = BurstyTarget(bursts=2, wait=249)
        EventDrivenEngine().drive(
            target,
            max_cycles=10_000,
            progress_callback=seen.append,
            progress_interval=100,
        )
        # One call per crossed boundary group: the jump from 1 to 250 reports
        # once (at 250), the step train around 251 reports nothing new, etc.
        assert seen  # fired at least once
        assert all(c % 100 == 0 or c >= 100 for c in seen)
        assert seen == sorted(seen)


class TestDrivingPlainTargets:
    """What any engine owes any target: every cycle counted, a budget that
    names the run it cut short, progress at the shared default cadence."""

    def test_lockstep_steps_every_cycle(self):
        target = PlainTarget(25)
        assert LockstepEngine().drive(target, max_cycles=100) == 25
        assert target.stepped == 25
        assert get_engine("lockstep").drive(PlainTarget(1), max_cycles=100) == 1

    def test_lockstep_budget_error_names_the_run(self):
        with pytest.raises(SimulationLimitError) as excinfo:
            LockstepEngine().drive(
                PlainTarget(1_000), max_cycles=5, describe="simulation of 'stuck_kernel'"
            )
        assert "stuck_kernel" in str(excinfo.value)
        assert excinfo.value.cycles == 5

    def test_progress_callback_cadence(self):
        seen = []
        LockstepEngine().drive(
            PlainTarget(35), max_cycles=100, progress_callback=seen.append, progress_interval=10
        )
        assert seen == [10, 20, 30]
        # Without an explicit interval: the shared default.
        seen.clear()
        cycles = 2 * DEFAULT_PROGRESS_INTERVAL + 5
        LockstepEngine().drive(PlainTarget(cycles), max_cycles=cycles, progress_callback=seen.append)
        assert seen == [DEFAULT_PROGRESS_INTERVAL, 2 * DEFAULT_PROGRESS_INTERVAL]

    def test_default_budget_is_shared_constant(self):
        run = inspect.signature(AcceleratorSystem.run).parameters
        assert run["max_cycles"].default == DEFAULT_CYCLE_BUDGET
        assert run["progress_interval"].default == DEFAULT_PROGRESS_INTERVAL
        assert SimJob(workload=GemmWorkload(name="b", m=8, n=8, k=8)).max_cycles == (
            DEFAULT_CYCLE_BUDGET
        )


class TestAnalyticBaselineBackend:
    def test_kernel_cycles_are_the_closed_form_estimate(self):
        """``baseline:<slug>`` outcomes are ``ideal / utilization``, no driver."""
        workload = GemmWorkload(name="baseline_backend", m=64, n=64, k=64)
        outcome = Simulator().simulate(
            SimJob(workload=workload, backend="baseline:gemmini-ws")
        )
        ideal = workload.ideal_compute_cycles(8, 8, 8)
        utilization = create_baseline("gemmini-ws").utilization(workload)
        assert outcome.utilization == utilization
        assert outcome.kernel_cycles == round(ideal / utilization) > 0
        assert "driver_cycles" not in outcome.metrics


class TestMemoryNextEvent:
    def make_memory(self, latency=4):
        geometry = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=64)
        return MemorySubsystem(geometry, read_latency=latency)

    def test_idle_memory_has_no_events(self):
        assert self.make_memory().next_event_cycle() is None

    def test_pending_request_is_immediate(self):
        memory = self.make_memory()
        memory.submit(MemoryRequest(requester="t", is_write=False, bank=0, line=0))
        assert memory.next_event_cycle() == memory.cycle

    def test_in_flight_response_schedules_its_delivery(self):
        memory = self.make_memory(latency=4)
        memory.submit(MemoryRequest(requester="t", is_write=False, bank=0, line=0))
        memory.step()  # grant at cycle 0 -> ready at cycle 4
        assert memory.cycle == 1
        assert memory.next_event_cycle() == 4
        memory.advance(3)
        assert memory.cycle == 4
        assert memory.deliver() == 1
        assert memory.collect(memory.bind("t"))
        assert memory.next_event_cycle() is None

    def test_matured_but_uncollected_response_is_immediate(self):
        memory = self.make_memory(latency=1)
        memory.submit(MemoryRequest(requester="t", is_write=False, bank=0, line=0))
        memory.step()
        memory.deliver()
        assert memory.next_event_cycle() == memory.cycle

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            self.make_memory().advance(-1)


class TestJobEngineField:
    def job(self, **kwargs):
        return SimJob(workload=GemmWorkload(name="je", m=16, n=16, k=16), **kwargs)

    def test_default_engine(self):
        assert self.job().engine == DEFAULT_ENGINE

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            self.job(engine="warp-drive")

    def test_engine_changes_job_hash(self):
        assert self.job(engine="event").job_hash() != self.job(engine="lockstep").job_hash()

    def test_engine_in_describe_and_provenance(self):
        job = self.job(engine="lockstep")
        assert job.describe()["engine"] == "lockstep"
        outcome = Simulator().simulate(job)
        assert outcome.provenance["engine"] == "lockstep"
        assert outcome.result.metadata["engine"] == "lockstep"

    def test_cross_engine_runs_do_not_share_cache_entries(self, tmp_path):
        """Same job, different engine: both simulate, neither poisons the other."""
        sim = Simulator(cache_dir=tmp_path)
        first = sim.simulate(self.job(engine="event"))
        assert sim.stats.executed == 1
        second = sim.simulate(self.job(engine="lockstep"))
        assert sim.stats.executed == 2  # cache miss: engines never collide
        assert sim.stats.cache_hits == 0
        # Parity means the numbers agree even though the entries are distinct.
        assert first.kernel_cycles == second.kernel_cycles
        assert first.job_hash != second.job_hash
        # Warm re-runs hit their own engine's entry.
        warm = Simulator(cache_dir=tmp_path)
        assert warm.simulate(self.job(engine="lockstep")).cache_hit
        assert warm.stats.executed == 0

    def test_sweep_engine_threads_through(self):
        sim = Simulator()
        outcomes = sim.sweep(
            [GemmWorkload(name="sweep_engine", m=16, n=16, k=16)], engine="lockstep"
        )
        assert outcomes[0].provenance["engine"] == "lockstep"


class TestJumpTimers:
    """A tracer hears what each macro jump cost: the ``steady_span`` call
    that staged it and its ``advance_active``."""

    WORKLOAD = GemmWorkload(name="jump_timers", m=64, n=64, k=512, with_bias=True)

    def run(self):
        design = datamaestro_evaluation_system()
        program = compile_workload(self.WORKLOAD, design, FeatureSet.all_enabled())
        system = AcceleratorSystem(design)
        system.run(program, engine="event")
        return system

    def test_every_macro_jump_carries_its_plan_and_replay_times(self):
        recorder = install_tracer()
        try:
            system = self.run()
        finally:
            uninstall_tracer()
        jumps = [event.args for event in recorder.events() if event.name == "macro_jump"]
        assert len(jumps) == system.steady_stats()["jumps"] == 2
        for args in jumps:
            assert args["plan_ms"] >= 0 and args["replay_ms"] > 0, args
        assert sum(args["span"] for args in jumps) == system.steady_stats()[
            "cycles_skipped"
        ]

    def test_nothing_is_timed_without_a_tracer(self, monkeypatch):
        def untimed():
            raise AssertionError("a jump was timed without a tracer")

        monkeypatch.setattr(event_engine, "perf_counter", untimed)
        assert self.run().steady_stats()["jumps"] == 2
