"""Batches through ``Simulator``: ordering, dedup, backend parity, and one
admission path — one counted probe per distinct job on every executor."""

from collections import Counter
from contextlib import ExitStack

import pytest

from repro.baselines import create_baseline
from repro.cli import _simulator_from_args, build_parser, main
from repro.cluster import ClusterConfig, ClusterService
from repro.runtime import ResultCache, SimJob, Simulator, get_backend
from repro.serve import ServiceClient
from repro.workloads import GemmWorkload

WORKLOADS = [
    GemmWorkload(name=f"batch_gemm_{size}", m=size, n=size, k=size)
    for size in (8, 16, 24, 32)
]


def make_jobs():
    return [SimJob(workload=workload) for workload in WORKLOADS]


def two_shards(cache=None):
    """A two-shard cluster with no journal, as ``--jobs 2`` opens one."""
    return ClusterService(cache=cache, config=ClusterConfig(shards=2))


def cli_simulator(jobs, resources, *flags):
    """The simulator ``repro batch --jobs N`` runs on; ``resources`` closes
    what it opens, as ``main``'s ExitStack does."""
    args = build_parser().parse_args(["batch", "gemm:8x8x8", "--jobs", jobs, *flags])
    args.resources = resources
    return _simulator_from_args(args)


class TestOrdering:
    def test_serial_order_matches_submission(self):
        outcomes = Simulator().simulate_many(make_jobs())
        assert [o.workload_name for o in outcomes] == [w.name for w in WORKLOADS]

    def test_pool_order_matches_submission(self):
        """The process path (``--jobs 2``: a two-shard cluster) must
        preserve submission order exactly."""
        serial = Simulator().simulate_many(make_jobs())
        with ExitStack() as resources:
            pooled = cli_simulator("2", resources, "--no-cache").simulate_many(make_jobs())
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
        Simulator(cache=cache).simulate_many(jobs[1:3])
        with two_shards(cache) as cluster:
            simulator = Simulator(service=cluster)
            outcomes = simulator.simulate_many(jobs)
        assert [o.workload_name for o in outcomes] == [w.name for w in WORKLOADS]
        assert [o.cache_hit for o in outcomes] == [False, True, True, False]
        assert simulator.stats.cache_hits == 2
        assert simulator.stats.executed == 2


class TestDedup:
    def test_duplicate_jobs_simulated_once(self):
        job = SimJob(workload=WORKLOADS[0])
        simulator = Simulator()
        outcomes = simulator.simulate_many([job, job, job])
        assert simulator.stats.executed == 1
        assert simulator.stats.coalesced == 2
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
    """The simulator's counters and the ResultCache's must agree.

    The core probes through the cache's single counted lookup path (get),
    once per distinct job not already in flight, so after any sequence of
    batches against one fresh cache: hits match, and every miss is one
    execution or one failure.
    """

    def assert_consistent(self, simulator, cache):
        stats = simulator.stats
        assert stats.cache_hits == cache.hits
        assert cache.misses == stats.executed + stats.failed

    def test_cold_then_warm_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        simulator = Simulator(cache=cache)
        simulator.simulate_many(make_jobs())
        assert simulator.stats.cache_hits == 0
        assert cache.misses == len(WORKLOADS)
        self.assert_consistent(simulator, cache)
        simulator.simulate_many(make_jobs())
        assert simulator.stats.cache_hits == len(WORKLOADS)
        self.assert_consistent(simulator, cache)

    def test_duplicates_screen_through_counted_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        simulator = Simulator(cache=cache)
        job = SimJob(workload=WORKLOADS[0])
        simulator.simulate_many([job, job, job])
        # A duplicate coalesces before it is probed: one counted miss, one
        # execution, two coalesced submissions.
        assert cache.misses == 1
        assert simulator.stats.executed == 1
        assert simulator.stats.coalesced == 2
        self.assert_consistent(simulator, cache)
        simulator.simulate_many([job, job])
        assert simulator.stats.cache_hits == 2
        self.assert_consistent(simulator, cache)

    def test_simulator_facade_counts_the_same_way(self, tmp_path):
        cache = ResultCache(tmp_path)
        simulator = Simulator(cache=cache)
        job = SimJob(workload=WORKLOADS[0])
        simulator.simulate(job)
        simulator.simulate(job)
        simulator.simulate_many([job, SimJob(workload=WORKLOADS[1])])
        assert simulator.stats.cache_hits == cache.hits == 2
        assert simulator.stats.executed == cache.misses == 2


class TestWorkerNormalization:
    """``--jobs`` is the one worker count left: 0 and 1 run in-process,
    N >= 2 runs batches on an N-shard cluster, a negative count is a usage
    error."""

    @staticmethod
    def forbid_clusters(monkeypatch):
        import repro.cluster

        def forbidden(*args, **kwargs):
            raise AssertionError("ClusterService constructed")

        monkeypatch.setattr(repro.cluster, "ClusterService", forbidden)

    def test_zero_workers_runs_in_process(self, monkeypatch, capsys):
        """``--jobs 0`` must never start a cluster."""
        self.forbid_clusters(monkeypatch)
        assert main(["batch", "gemm:8x8x8", "gemm:16x16x16", "--jobs", "0", "--no-cache"]) == 0
        assert "2 simulated" in capsys.readouterr().out

    def test_zero_workers_through_simulator(self):
        """``--jobs 2`` opens its cluster on the first batch with two jobs
        to run — a lone job runs in-process — and the CLI's one ExitStack
        closes it.  The cluster has no cache: the simulator probes and
        writes back."""
        with ExitStack() as resources:
            for jobs in ("0", "1"):
                assert type(cli_simulator(jobs, resources, "--no-cache")) is Simulator
            sharded = cli_simulator("2", resources, "--no-cache")
            sharded.simulate(make_jobs()[0])
            assert sharded.service._cluster is None and sharded.stats.executed == 1
            sharded.simulate_many(make_jobs()[1:])
            cluster = sharded.service._cluster
            assert cluster.snapshot()["shard_count"] == 2 and cluster.cache is None
            assert cluster.counters.executed == 3 == sharded.stats.executed - 1
        assert cluster.closed

    def test_sharded_warm_runs_start_no_cluster(self, monkeypatch, tmp_path):
        """Every job a cache hit, or one left to run: nothing to fan out."""
        cache = ["--cache-dir", str(tmp_path)]
        with ExitStack() as resources:
            cli_simulator("2", resources, *cache).simulate_many(make_jobs()[1:])
        self.forbid_clusters(monkeypatch)
        with ExitStack() as resources:
            sharded = cli_simulator("2", resources, *cache)
            outcomes = sharded.simulate_many(make_jobs())
        assert [o.cache_hit for o in outcomes] == [False, True, True, True]
        assert (sharded.stats.executed, sharded.stats.cache_hits) == (1, 3)

    def test_negative_workers_rejected(self, capsys):
        assert main(["batch", "gemm:8x8x8", "--jobs", "-1", "--no-cache"]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs")


class SpyCache(ResultCache):
    """A result cache that counts ``get`` calls per key."""

    def __init__(self, root):
        super().__init__(root)
        self.probes = Counter()

    def get(self, key):
        self.probes[key] += 1
        return super().get(key)


class TestOneProbePerJob:
    """Three distinct jobs plus one duplicate: however the batch executes,
    each distinct job is probed at most once."""

    @pytest.mark.parametrize("path", ["in-process", "thread service", "cluster", "--jobs 2"])
    def test_each_distinct_job_is_probed_at_most_once(self, path, tmp_path, monkeypatch):
        cache = SpyCache(tmp_path)
        jobs = make_jobs()[:3]
        batch = jobs + [jobs[1]]
        if path == "in-process":
            outcomes = Simulator(cache=cache).simulate_many(batch)
        elif path == "--jobs 2":
            monkeypatch.setattr("repro.runtime.admission.ResultCache", lambda root: cache)
            with ExitStack() as resources:
                outcomes = cli_simulator("2", resources, "--cache-dir", str(tmp_path)).simulate_many(batch)
        else:
            service = ServiceClient(cache=cache) if path == "thread service" else two_shards(cache)
            with service:
                outcomes = Simulator(service=service).simulate_many(batch)
        assert [o.job_hash for o in outcomes] == [job.job_hash() for job in batch]
        assert cache.probes == Counter(job.job_hash() for job in jobs)
