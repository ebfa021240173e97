"""Tests for the Simulator facade, sweeps and warm-cache experiment reruns."""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.core import ablation_feature_sets
from repro.experiments import fig7_ablation
from repro.runtime import SimJob, SimOutcome, Simulator, register_backend, simulate
from repro.runtime.backends import SimulationBackend
from repro.workloads import GemmWorkload

GEMM = GemmWorkload(name="sim_gemm", m=16, n=16, k=32)


class TestSimulate:
    def test_single_job_outcome_shape(self):
        outcome = Simulator().simulate(SimJob(workload=GEMM))
        assert outcome.workload_name == "sim_gemm"
        assert 0.0 < outcome.utilization <= 1.0
        assert outcome.functional_match is True
        assert outcome.provenance["package_version"]
        assert outcome.provenance["backend"] == "datamaestro"

    def test_module_level_simulate(self):
        outcome = simulate(SimJob(workload=GEMM))
        assert outcome.kernel_cycles > 0

    def test_cache_round_trip_counts(self, tmp_path):
        simulator = Simulator(cache_dir=tmp_path)
        job = SimJob(workload=GEMM)
        first = simulator.simulate(job)
        second = simulator.simulate(job)
        assert simulator.stats.executed == 1
        assert simulator.stats.cache_hits == 1
        assert not first.cache_hit and second.cache_hit
        assert first.utilization == second.utilization


class TestSweep:
    def test_feature_ladder_sweep_order(self):
        ladder = ablation_feature_sets()
        steps = ["1_baseline", "6_full"]
        workloads = [
            GEMM,
            GemmWorkload(name="sim_gemm_2", m=16, n=16, k=16),
        ]
        outcomes = Simulator().sweep(
            workloads, features=[ladder[step] for step in steps]
        )
        # Nesting order: for feature-set / for workload.
        assert [o.workload_name for o in outcomes] == [
            "sim_gemm",
            "sim_gemm_2",
            "sim_gemm",
            "sim_gemm_2",
        ]
        baseline, full = outcomes[0], outcomes[2]
        assert full.utilization > baseline.utilization

    def test_backend_axis(self):
        outcomes = Simulator().sweep(
            [GEMM], backends=("datamaestro", "baseline:feather")
        )
        assert [o.backend for o in outcomes] == ["datamaestro", "baseline:feather"]


class TestWarmCacheExperimentRerun:
    def test_fig7_rerun_with_warm_cache_simulates_nothing(self, tmp_path):
        """Acceptance: a repeated fig7 run with a warm cache performs zero new
        cycle-level simulations and produces an identical report."""
        cold = Simulator(cache_dir=tmp_path)
        first = fig7_ablation.run(workloads_per_group=1, full=False, simulator=cold)
        assert cold.stats.executed == first["num_simulations"] == 18

        warm = Simulator(cache_dir=tmp_path)
        second = fig7_ablation.run(workloads_per_group=1, full=False, simulator=warm)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 18
        assert fig7_ablation.report(first) == fig7_ablation.report(second)

    def test_shared_cache_across_facade_and_batch(self, tmp_path):
        jobs = [SimJob(workload=GEMM)]
        Simulator(cache_dir=tmp_path).simulate_many(jobs)
        warm = Simulator(cache_dir=tmp_path)
        outcome = warm.simulate(jobs[0])
        assert outcome.cache_hit
        assert warm.stats.executed == 0

    def test_cached_rerun_gemm64(self, tmp_path):
        """A dense 64x64x64 GeMM is served whole from a warm disk cache."""
        job = SimJob(workload=GemmWorkload(name="cached_gemm64", m=64, n=64, k=64))
        cold = Simulator(cache_dir=tmp_path)
        first = cold.simulate(job)
        assert cold.stats.executed == 1
        warm = Simulator(cache_dir=tmp_path)
        outcome = warm.simulate(job)
        assert outcome.cache_hit
        assert warm.stats.executed == 0
        assert outcome.kernel_cycles == first.kernel_cycles


class CountingBackend(SimulationBackend):
    """Counts executions per job; each takes a millisecond, so threads overlap."""

    name = "simulator-stress"

    def __init__(self):
        self.calls = Counter()
        self._lock = threading.Lock()

    def execute(self, job):
        with self._lock:
            self.calls[job.job_hash()] += 1
        time.sleep(0.001)
        ideal = job.workload.ideal_compute_cycles(
            job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
        )
        return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


class TestSharedSimulator:
    @pytest.mark.parametrize("front", ["cached", "uncached", "over a service"])
    def test_threads_sharing_one_simulator_settle_every_job(self, front, tmp_path):
        """Eight threads x 30 overlapping batches on one simulator.  A job a
        thread settled may be admitted again by another at once (no cache
        answers it): retiring the first entry must never touch the second,
        so every outcome arrives and the accounting closes.  With a cache,
        every distinct job runs exactly once."""
        from repro.serve import ServiceClient

        backend = CountingBackend()
        register_backend(backend, overwrite=True)
        jobs = [
            SimJob(workload=GemmWorkload(name=f"shared_{i}", m=8, n=8, k=8), backend=backend.name)
            for i in range(10)
        ]
        service = ServiceClient() if front == "over a service" else None
        simulator = Simulator(cache_dir=tmp_path if front == "cached" else None, service=service)
        errors = []

        def worker(index):
            rng = random.Random(index)
            try:
                for _ in range(30):
                    batch = rng.sample(jobs, 8)
                    outcomes = simulator.simulate_many(batch)
                    assert [o.job_hash for o in outcomes] == [j.job_hash() for j in batch]
            except BaseException as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a simulate_many call hung"
        finally:
            sys.setswitchinterval(interval)
            if service is not None:
                service.close()
        assert errors == []
        stats = simulator.stats
        assert stats.failed == stats.cancelled == 0
        assert stats.submitted == 8 * 30 * 8 == stats.executed + stats.cache_hits + stats.coalesced
        assert stats.executed == sum(backend.calls.values())
        if front == "cached":
            assert backend.calls == Counter(job.job_hash() for job in jobs)
        if service is not None:
            served = service.stats()
            assert served["executed"] == stats.executed and served["cancelled"] == 0
