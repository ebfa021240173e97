"""Lockstep ≡ event-driven parity suite.

The event-driven scheduler (:mod:`repro.engine.event`) must be *bit-identical*
to the legacy lockstep loop: same cycle counts, same bank-conflict counts,
same per-streamer statistics, same extracted output tensors.  This suite
enforces that across the experiment workloads:

* the fig4 workload (the 4x4x4 GeMM whose address sequence the paper prints);
* the fig7 ablation suite — one workload per group through the whole ①–⑥
  feature ladder (including the prefetch-disabled baseline, the engine's
  biggest skip opportunity);
* the table3 networks — representative crops of the unique layers of every
  network in :mod:`repro.workloads.networks` (a stratified subset per network
  by default; set ``REPRO_FULL_SUITE=1`` to cover every unique layer);
* a latency-bound design variant (deep memory latency, shallow FIFOs) where
  the event engine skips long spans and must still bulk-apply every stall
  counter exactly;
* a deadlock, where both engines must raise the same
  :class:`SimulationLimitError` at the same cycle with the same report.
"""

import collections

import numpy as np
import pytest

from repro.analysis.network_perf import representative_crop
from repro.compiler import compile_workload
from repro.config import get_config
from repro.core.params import FeatureSet, ablation_feature_sets
from repro.sim import SimulationLimitError
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import GemmWorkload
from repro.workloads.networks import benchmark_networks
from repro.workloads.synthetic import stratified_subset, synthetic_suite

DESIGN = datamaestro_evaluation_system()
ENGINES = ("lockstep", "event")

FULL_SUITE = get_config().full_suite
#: Crops per network in the default (subset) run.
CROPS_PER_NETWORK = 3


def run_engine(engine, workload, design=None, features=None, seed=0, max_cycles=None):
    design = design or DESIGN
    program = compile_workload(
        workload, design, features or FeatureSet.all_enabled(), seed=seed
    )
    system = AcceleratorSystem(design)
    kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
    result = system.run(program, engine=engine, **kwargs)
    return system, result


def assert_results_identical(lockstep, event):
    """Full structural comparison of two :class:`SimulationResult` objects."""
    assert lockstep.streaming_cycles == event.streaming_cycles
    assert lockstep.prepass_cycles == event.prepass_cycles
    assert lockstep.kernel_cycles == event.kernel_cycles
    assert lockstep.bank_conflicts == event.bank_conflicts
    assert lockstep.memory_reads == event.memory_reads
    assert lockstep.memory_writes == event.memory_writes
    assert lockstep.counters == event.counters
    assert lockstep.utilization == event.utilization
    assert set(lockstep.streamer_stats) == set(event.streamer_stats)
    for port, stats in lockstep.streamer_stats.items():
        assert stats.as_dict() == event.streamer_stats[port].as_dict(), port
    assert set(lockstep.outputs) == set(event.outputs)
    for name, tensor in lockstep.outputs.items():
        assert np.array_equal(tensor, event.outputs[name]), name


def assert_deep_state_identical(reference, other):
    """Compare the memory state the macro replay rebuilds instead of stepping.

    Per-bank access counters, the arbiter's rotating pointers, the scratchpad
    bytes and the requester registry do not reach :class:`SimulationResult`
    bank by bank, so two systems can agree on every reported total and still
    differ here.
    """
    left, right = reference.memory, other.memory
    for bank_l, bank_r in zip(left.scratchpad.banks, right.scratchpad.banks):
        assert (bank_l.read_count, bank_l.write_count) == (
            bank_r.read_count,
            bank_r.write_count,
        ), f"bank {bank_l.index} access counters"
        assert np.array_equal(bank_l._data, bank_r._data), f"bank {bank_l.index} data"
    assert dict(left._last_grant) == dict(right._last_grant)
    assert list(left._requesters) == list(right._requesters)
    for name in left._requesters:
        assert left.requester_stats(name) == right.requester_stats(name), name


def assert_parity(workload, design=None, features=None, seed=0):
    system_l, lockstep = run_engine("lockstep", workload, design, features, seed)
    system_e, event = run_engine("event", workload, design, features, seed)
    assert_results_identical(lockstep, event)
    assert_deep_state_identical(system_l, system_e)
    # Functional verdict against the numpy oracle must agree too.
    assert system_l.verify_outputs(lockstep) == system_e.verify_outputs(event)
    return system_l, system_e


# ----------------------------------------------------------------------
# fig4: the paper's address-generation example workload.
# ----------------------------------------------------------------------
class TestFig4Workload:
    def test_fig4_gemm(self):
        assert_parity(GemmWorkload(name="parity_fig4", m=4, n=4, k=4))


# ----------------------------------------------------------------------
# fig7: the ablation suite through the whole feature ladder.
# ----------------------------------------------------------------------
def fig7_points():
    points = []
    for group, workloads in synthetic_suite().items():
        workload = stratified_subset(workloads, 1)[0]
        for step, features in ablation_feature_sets().items():
            points.append(
                pytest.param(
                    workload, features, id=f"{group.value}-{step}"
                )
            )
    return points


class TestFig7Ablation:
    @pytest.mark.parametrize("workload, features", fig7_points())
    def test_ladder_step(self, workload, features):
        assert_parity(workload, features=features)


# ----------------------------------------------------------------------
# table3: every network in repro.workloads.networks.
# ----------------------------------------------------------------------
def network_crops():
    """Representative crops of the unique layers of every network."""
    crops = {}
    for model in benchmark_networks().values():
        layers = model.unique_workloads()
        if not FULL_SUITE:
            layers = stratified_subset(layers, CROPS_PER_NETWORK)
        for workload in layers:
            crop = representative_crop(workload)
            crops.setdefault(crop.name, crop)
    return [pytest.param(crop, id=name) for name, crop in sorted(crops.items())]


class TestTable3Networks:
    @pytest.mark.parametrize("crop", network_crops())
    def test_network_layer_crop(self, crop):
        assert_parity(crop)


# ----------------------------------------------------------------------
# Latency-bound corner: long skip spans, exact stall accounting.
# ----------------------------------------------------------------------
class TestLatencyBoundDesign:
    @pytest.fixture(scope="class")
    def slow_design(self):
        import dataclasses

        memory = dataclasses.replace(DESIGN.memory, read_latency=24)
        return dataclasses.replace(DESIGN, name="parity_slow_mem", memory=memory)

    def test_prefetch_disabled_high_latency(self, slow_design, monkeypatch):
        """The ablation baseline on slow memory: mostly idle, all skippable.

        Same cycles, far fewer ``step()`` calls: the event engine skips the
        idle memory round trips that lockstep steps one by one (measured:
        131 calls against 3,225).
        """
        import dataclasses

        features = dataclasses.replace(
            FeatureSet.all_enabled(), fine_grained_prefetch=False
        )
        calls = collections.Counter()
        step = AcceleratorSystem.step

        def counted_step(system):
            calls[id(system)] += 1
            return step(system)

        monkeypatch.setattr(AcceleratorSystem, "step", counted_step)
        system_l, system_e = assert_parity(
            GemmWorkload(name="parity_bw_bound", m=32, n=32, k=64),
            design=slow_design,
            features=features,
        )
        lockstep_steps, event_steps = calls[id(system_l)], calls[id(system_e)]
        assert 0 < 10 * event_steps < lockstep_steps, (event_steps, lockstep_steps)

    def test_prefetch_enabled_high_latency(self, slow_design):
        assert_parity(
            GemmWorkload(name="parity_latency_prefetch", m=32, n=32, k=64),
            design=slow_design,
        )

    def test_quantized_workload_high_latency(self, slow_design):
        assert_parity(
            GemmWorkload(name="parity_latency_quant", m=32, n=32, k=32, quantize=True),
            design=slow_design,
        )


# ----------------------------------------------------------------------
# Deadlocks: identical SimulationLimitError under both engines — fast.
# ----------------------------------------------------------------------
class TestDeadlockParity:
    def starved_program(self):
        """An AGU programmed with too few iterations starves the core."""
        from repro.core.csr import encode_runtime_config

        workload = GemmWorkload(name="parity_deadlock", m=16, n=16, k=16)
        program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
        short = program.streamer_configs["A"].with_updates(temporal_bounds=(1, 1, 1))
        program.streamer_configs["A"] = short
        program.csr_writes["A"] = encode_runtime_config(
            DESIGN.streamer("A"), short, list(DESIGN.group_size_options())
        )
        return program

    def test_same_error_same_cycle_same_report(self):
        errors = {}
        for engine in ENGINES:
            system = AcceleratorSystem(DESIGN)
            with pytest.raises(SimulationLimitError) as excinfo:
                system.run(self.starved_program(), max_cycles=5_000, engine=engine)
            errors[engine] = excinfo.value
        lockstep, event = errors["lockstep"], errors["event"]
        assert lockstep.cycles == event.cycles == 5_000
        assert lockstep.message == event.message
        # The deadlock report reflects identical (bulk-advanced) state.
        assert lockstep.detail == event.detail
        assert "bundles=" in event.detail and "busy=" in event.detail
        assert "parity_deadlock" in str(event)

    def test_event_engine_reaches_large_budgets_instantly(self):
        """The deadlock fast-path makes huge budgets affordable."""
        system = AcceleratorSystem(DESIGN)
        with pytest.raises(SimulationLimitError) as excinfo:
            system.run(self.starved_program(), max_cycles=50_000_000, engine="event")
        assert excinfo.value.cycles == 50_000_000
