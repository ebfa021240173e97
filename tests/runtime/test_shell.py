"""The admission shell's inline executor: what a failed batch leaves behind."""

import threading

import pytest

from repro.runtime import SimJob, Simulator
from repro.workloads import GemmWorkload


def test_a_batch_that_fails_admission_strands_no_entry():
    """A job whose hash cannot be computed fails its batch at admission.  The
    jobs admitted before it are retired ``cancelled``, so the next call runs
    them instead of waiting on a future that nothing resolves."""
    good = SimJob(workload=GemmWorkload(name="shell_good", m=8, n=8, k=8))
    bad = SimJob(workload=GemmWorkload(name="shell_bad", m=8, n=8, k=8), seed=object())
    simulator = Simulator()
    with pytest.raises(TypeError):
        simulator.simulate_many([good, bad])
    assert (simulator.stats.submitted, simulator.stats.cancelled) == (1, 1)

    outcomes = []
    rerun = threading.Thread(target=lambda: outcomes.append(simulator.simulate(good)), daemon=True)
    rerun.start()
    rerun.join(timeout=60)
    assert not rerun.is_alive(), "the rerun waited on the failed batch's entry"
    assert outcomes[0].job_hash == good.job_hash() and simulator.stats.executed == 1
