"""Tests for BatchRunner: ordering, dedup, pool execution, backend parity."""

import pytest

from repro.baselines import create_baseline
from repro.runtime import BatchRunner, ResultCache, SimJob, Simulator, get_backend
from repro.workloads import GemmWorkload

WORKLOADS = [
    GemmWorkload(name=f"batch_gemm_{size}", m=size, n=size, k=size)
    for size in (8, 16, 24, 32)
]


def make_jobs():
    return [SimJob(workload=workload) for workload in WORKLOADS]


class TestOrdering:
    def test_serial_order_matches_submission(self):
        outcomes = BatchRunner().run(make_jobs())
        assert [o.workload_name for o in outcomes] == [w.name for w in WORKLOADS]

    def test_pool_order_matches_submission(self):
        """Process-pool fan-out must preserve submission order exactly."""
        serial = BatchRunner().run(make_jobs())
        pooled = BatchRunner(max_workers=2).run(make_jobs())
        assert [o.workload_name for o in pooled] == [w.name for w in WORKLOADS]
        for a, b in zip(serial, pooled):
            assert a.utilization == b.utilization
            assert a.kernel_cycles == b.kernel_cycles
            assert a.job_hash == b.job_hash

    def test_pool_order_with_cache_prefill(self, tmp_path):
        """Mixed hit/miss batches still come back in submission order."""
        cache = ResultCache(tmp_path)
        # Pre-warm only the middle two jobs.
        jobs = make_jobs()
        BatchRunner(cache=cache).run(jobs[1:3])
        runner = BatchRunner(cache=cache, max_workers=2)
        outcomes = runner.run(jobs)
        assert [o.workload_name for o in outcomes] == [w.name for w in WORKLOADS]
        assert [o.cache_hit for o in outcomes] == [False, True, True, False]
        assert runner.stats.cache_hits == 2
        assert runner.stats.executed == 2


class TestDedup:
    def test_duplicate_jobs_simulated_once(self):
        job = SimJob(workload=WORKLOADS[0])
        runner = BatchRunner()
        outcomes = runner.run([job, job, job])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 2
        assert len(outcomes) == 3
        assert len({o.job_hash for o in outcomes}) == 1


class TestBaselineParity:
    @pytest.mark.parametrize(
        "slug", ["gemmini-os", "gemmini-ws", "bitwave", "feather"]
    )
    def test_backend_matches_direct_model_invocation(self, slug):
        workload = WORKLOADS[3]
        job = SimJob(workload=workload, backend=f"baseline:{slug}")
        outcome = get_backend(job.backend).execute(job)
        direct = create_baseline(slug).utilization(workload)
        assert outcome.utilization == pytest.approx(direct)
        assert outcome.metrics["analytic"] is True
        assert outcome.result is None

    def test_mixed_backend_batch(self):
        # Paper-scale kernel: the measured DataMaestro system beats the
        # strongest analytic baseline (tiny kernels are fill/drain-bound).
        workload = GemmWorkload(name="batch_gemm_64", m=64, n=64, k=64)
        jobs = [
            SimJob(workload=workload),
            SimJob(workload=workload, backend="baseline:feather"),
        ]
        measured, modelled = Simulator().simulate_many(jobs)
        assert measured.backend == "datamaestro"
        assert modelled.backend == "baseline:feather"
        assert measured.utilization > modelled.utilization

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("baseline:bogus")


class TestCacheAccounting:
    """BatchStats and ResultCache counters must agree after batch runs.

    Screening goes through the cache's single counted lookup path (get),
    so after any sequence of runs against one fresh cache:
    hits match, misses match, and misses == executed + deduplicated.
    """

    def assert_consistent(self, runner, cache):
        assert runner.stats.cache_hits == cache.hits
        assert runner.stats.cache_misses == cache.misses
        assert (
            runner.stats.cache_misses
            == runner.stats.executed + runner.stats.deduplicated
        )

    def test_cold_then_warm_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache)
        runner.run(make_jobs())
        assert runner.stats.cache_hits == 0
        assert runner.stats.cache_misses == len(WORKLOADS)
        self.assert_consistent(runner, cache)
        runner.run(make_jobs())
        assert runner.stats.cache_hits == len(WORKLOADS)
        self.assert_consistent(runner, cache)

    def test_duplicates_screen_through_counted_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache)
        job = SimJob(workload=WORKLOADS[0])
        runner.run([job, job, job])
        # Every occurrence is screened once: three counted misses, one
        # execution, two dedups.
        assert runner.stats.cache_misses == 3
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 2
        self.assert_consistent(runner, cache)
        runner.run([job, job])
        assert runner.stats.cache_hits == 2
        self.assert_consistent(runner, cache)

    def test_simulator_facade_counts_the_same_way(self, tmp_path):
        cache = ResultCache(tmp_path)
        simulator = Simulator(cache=cache)
        job = SimJob(workload=WORKLOADS[0])
        simulator.simulate(job)
        simulator.simulate(job)
        simulator.simulate_many([job, SimJob(workload=WORKLOADS[1])])
        assert simulator.stats.cache_hits == cache.hits == 2
        assert simulator.stats.cache_misses == cache.misses == 2


class TestWorkerNormalization:
    def test_zero_workers_runs_in_process(self, monkeypatch):
        """max_workers=0 must never reach the ProcessPoolExecutor."""
        import concurrent.futures

        def forbidden(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for 0 workers")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", forbidden
        )
        runner = BatchRunner(max_workers=0)
        outcomes = runner.run(make_jobs())
        assert [o.workload_name for o in outcomes] == [w.name for w in WORKLOADS]
        assert runner.stats.executed == len(WORKLOADS)

    def test_zero_workers_through_simulator(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool used")),
        )
        simulator = Simulator(max_workers=0)
        outcomes = simulator.simulate_many(make_jobs()[:2])
        assert len(outcomes) == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(max_workers=-1)
        # ... and by the facade at construction, not at its first batch.
        with pytest.raises(ValueError):
            Simulator(max_workers=-1)
