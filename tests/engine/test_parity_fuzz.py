"""Property-based engine-parity fuzzing over generated workloads.

The hand-picked parity suite (``test_parity.py``) proves event ≡ lockstep on
the paper's workloads; this suite proves it on workloads *nobody picked*.
For dozens of seeded random cases per scenario family (conv/GeMM boxes plus
the transformer-era shapes: prefill, decode, ragged groups, MoE dispatch),
every workload is simulated three ways —

* the lockstep reference loop,
* the event engine with macro-stepping (the default), and
* the event engine with macro-stepping disabled —

and all three must agree bit-for-bit: cycle counts, bank conflicts,
per-streamer statistics, output tensors and the memory state behind them
(per-bank counters, arbiter pointers, scratchpad bytes, requester registry).  A failing case is minimised
with the generator's shrinker and the failure message carries a
ready-to-paste regression test, so a red CI run converts directly into a
permanent test case.

The same cases are also stepped under a checking lockstep loop that asserts
the step path's own invariants every cycle (channel credits agree with the
memory's queues, FIFOs never overfill, nothing is issued twice or lost) and
the result's at the end — parity alone cannot see an error all three engines
share.

Scale: ≥ 25 cases by default, ≥ 200 under ``REPRO_FULL_SUITE=1``; the base
seed comes from the ``fuzz_seed`` fixture (``REPRO_FUZZ_SEED``).
"""

import pytest
from test_parity import assert_deep_state_identical, assert_results_identical

from repro.compiler import compile_workload
from repro.config import get_config
from repro.core.params import FeatureSet
from repro.engine import EventDrivenEngine, LockstepEngine
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import FAMILIES, WorkloadGenerator, regression_snippet, shrink

DESIGN = datamaestro_evaluation_system()

#: Cases per family: 7 families × 4 = 28 cases default, 7 × 29 = 203 full.
CASES_PER_FAMILY = 29 if get_config().full_suite else 4


def _engine_results(workload, seed):
    """Simulate ``workload`` under all three engine configurations."""
    results = {}
    for label, engine in (
        ("lockstep", "lockstep"),
        ("event_macro", "event"),
        ("event_nomacro", EventDrivenEngine(macro_stepping=False)),
    ):
        program = compile_workload(
            workload, DESIGN, FeatureSet.all_enabled(), seed=seed
        )
        system = AcceleratorSystem(DESIGN)
        results[label] = (system, system.run(program, engine=engine))
    return results


def _check_parity(workload, seed):
    """Raise AssertionError unless all three configurations agree exactly."""
    results = _engine_results(workload, seed)
    system_l, lockstep = results["lockstep"]
    system_m, macro_on = results["event_macro"]
    system_n, macro_off = results["event_nomacro"]
    assert_results_identical(lockstep, macro_on)
    assert_results_identical(macro_on, macro_off)
    assert_deep_state_identical(system_l, system_m)
    assert_deep_state_identical(system_m, system_n)
    verdicts = {
        system_l.verify_outputs(lockstep),
        system_m.verify_outputs(macro_on),
        system_n.verify_outputs(macro_off),
    }
    assert len(verdicts) == 1, "engines disagree on the functional verdict"


def _parity_fails(workload, seed):
    """Shrinker predicate: True while the (shrunken) case still diverges."""
    try:
        _check_parity(workload, seed)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("family", FAMILIES)
def test_random_workloads_hold_parity(family, fuzz_seed):
    """event ≡ lockstep and macro-on ≡ macro-off on every generated case."""
    generator = WorkloadGenerator(seed=fuzz_seed, families=(family,))
    for case in generator.draw_many(CASES_PER_FAMILY, family):
        for workload in case.workloads:
            if not _parity_fails(workload, fuzz_seed):
                continue
            minimal = shrink(workload, lambda w: _parity_fails(w, fuzz_seed))
            pytest.fail(
                f"engine parity violated by generated case {case.family!r} "
                f"(REPRO_FUZZ_SEED={fuzz_seed}); shrunken counterexample "
                f"{minimal!r} — paste this into tests/engine/test_parity.py:"
                f"\n\n{regression_snippet(minimal, seed=fuzz_seed)}"
            )


class _CheckedLockstep(LockstepEngine):
    """Lockstep with the step-path invariants asserted after every cycle."""

    def drive(self, target, max_cycles, **_kwargs):
        memory = target.memory
        streamers = [target.streamers[port] for port in target._active_ports]
        cycles = 0
        busy = True
        while busy:
            assert cycles < max_cycles, "cycle budget exhausted"
            busy = target.step()
            cycles += 1
            for streamer in streamers:
                issued = streamer.requests_issued
                # The address FIFOs: two counters, within their depth.
                queued = streamer.bundles_generated - issued
                assert 0 <= queued <= streamer.design.address_buffer_depth, queued
                for port, fifo in zip(streamer.ports, streamer.fifos, strict=True):
                    name = port.name
                    assert 0 <= len(fifo) <= fifo.depth, fifo.name
                    outstanding = issued - port.delivered
                    if streamer.is_read:
                        # In flight plus buffered: every one owns a slot.
                        assert (
                            len(fifo) + outstanding
                            == issued - streamer.words_streamed
                        ), name
                    else:
                        # A write word waits in every channel's data FIFO
                        # from its push to the streamer's issue.
                        assert (
                            len(fifo) == streamer.words_streamed - issued
                        ), name
                    assert outstanding == memory.outstanding_count(name), name
                    # A streamer's channels issue together: each port's
                    # granted + pending is the streamer's one issue cursor.
                    granted = memory.requester_stats(name)["granted"]
                    assert issued == granted + memory.pending_count(name), name
        for streamer in streamers:
            for port in streamer.ports:
                assert port.delivered == streamer.requests_issued, (
                    f"{port.name}: words delivered != words requested"
                )
        # The memory's totals count the DMA pre-pass too; the banks and the
        # ports count only crossbar grants.  Replay moves the totals by
        # per-period deltas and the bank counts by a histogram, so parity
        # carries this identity to every engine.
        banks = memory.scratchpad.banks
        reads = memory.total_reads - memory.dma_reads
        writes = memory.total_writes - memory.dma_writes
        assert sum(bank.read_count for bank in banks) == reads
        assert sum(bank.write_count for bank in banks) == writes
        granted = sum(port.granted for port in memory._requesters.values())
        assert granted == reads + writes
        return cycles


@pytest.mark.parametrize("family", FAMILIES)
def test_random_workloads_hold_step_invariants(family, fuzz_seed):
    """Per-cycle and end-of-run invariants on every generated case."""
    generator = WorkloadGenerator(seed=fuzz_seed, families=(family,))
    for case in generator.draw_many(CASES_PER_FAMILY, family):
        for workload in case.workloads:
            program = compile_workload(
                workload, DESIGN, FeatureSet.all_enabled(), seed=fuzz_seed
            )
            result = AcceleratorSystem(DESIGN).run(program, engine=_CheckedLockstep())
            requests = sum(s.requests_issued for s in result.streamer_stats.values())
            assert requests == sum(
                s.requests_granted for s in result.streamer_stats.values()
            )
            assert requests == result.memory_reads + result.memory_writes
            assert result.bank_conflicts <= requests, workload
            assert result.utilization <= 1.0, workload
            assert result.kernel_cycles >= result.ideal_compute_cycles, workload


def test_suite_meets_the_minimum_case_count(fuzz_seed):
    """The acceptance bar: ≥ 25 default cases, ≥ 200 under the full suite."""
    total = CASES_PER_FAMILY * len(FAMILIES)
    floor = 200 if get_config().full_suite else 25
    assert total >= floor
    # And the draws are real: a generator replays the same sequence.
    first = WorkloadGenerator(seed=fuzz_seed).draw_many(5)
    again = WorkloadGenerator(seed=fuzz_seed).draw_many(5)
    assert [c.workloads for c in first] == [c.workloads for c in again]
