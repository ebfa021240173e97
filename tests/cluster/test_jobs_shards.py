"""``--jobs N`` answers a batch's new jobs from its shards, not in-process.

The stub backend counts its calls in this process only: a shard is a forked
child and counts on its own copy of the counter.  So the count here is what
the ``--jobs 2`` simulator ran on the caller's thread.
"""

import itertools
from contextlib import ExitStack

import pytest

from repro.cli import _simulator_from_args, build_parser
from repro.runtime import SimJob, SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend
from repro.workloads import GemmWorkload

_NAMES = itertools.count()


class CountingBackend(SimulationBackend):
    """Analytic outcome at once; ``calls`` counts this process's executions,
    and a job whose seed is ``fail_seed`` raises."""

    def __init__(self, fail_seed=None):
        self.name = f"jobs-counting-{next(_NAMES)}"
        self.fail_seed = fail_seed
        self.calls = 0

    def execute(self, job):
        self.calls += 1
        if job.seed == self.fail_seed:
            raise ValueError("injected failure")
        ideal = job.workload.ideal_compute_cycles(
            job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
        )
        return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


@pytest.fixture
def backend():
    """A counting backend registered before any shard forks, so the shards
    inherit it."""
    counting = CountingBackend(fail_seed=1)
    register_backend(counting)
    return counting


def jobs(backend, seeds):
    return [
        SimJob(
            workload=GemmWorkload(name=f"jobs_{seed}", m=8, n=8, k=8),
            backend=backend.name,
            seed=seed,
        )
        for seed in seeds
    ]


def jobs_two(resources):
    """The simulator ``repro batch --jobs 2 --no-cache`` runs on."""
    args = build_parser().parse_args(["batch", "gemm:8x8x8", "--jobs", "2", "--no-cache"])
    args.resources = resources
    return _simulator_from_args(args)


def test_a_batch_runs_on_the_shards_and_a_lone_job_in_process(backend):
    batch, lone = jobs(backend, [0, 2, 3]), jobs(backend, [4])[0]
    with ExitStack() as resources:
        simulator = jobs_two(resources)
        outcomes = simulator.simulate_many(batch)
        assert backend.calls == 0
        assert [outcome.job_hash for outcome in outcomes] == [job.job_hash() for job in batch]
        simulator.simulate(lone)
        assert backend.calls == 1
        assert simulator.stats.executed == 4


def test_a_failed_batch_leaves_its_unrun_jobs_to_their_shard_tickets(backend):
    """The job that fails on its shard fails the batch; the jobs after it
    were sent but never ran here, so they retire ``cancelled``, and a rerun
    of one is answered by the ticket its shard still holds."""
    batch = jobs(backend, [0, 1, 2, 3])
    with ExitStack() as resources:
        simulator = jobs_two(resources)
        with pytest.raises(ValueError, match="injected failure"):
            simulator.simulate_many(batch)
        stats = simulator.stats
        assert (stats.executed, stats.failed, stats.cancelled) == (1, 1, 2)
        rerun = simulator.simulate(batch[2])
        assert rerun.job_hash == batch[2].job_hash() and stats.executed == 2
        assert backend.calls == 0
