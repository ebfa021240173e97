"""Service benchmark: throughput + latency under a duplicate-heavy stream.

Replays the traffic shape the service exists for — many clients asking for
overlapping work: 50 submissions drawn from 5 unique small kernels (a
20/10/10/5/5 duplicate mix), pushed through a 2-worker
:class:`~repro.serve.client.ServiceClient` with a fresh result cache.

Recorded in ``BENCH_serve.json`` under ``$REPRO_BENCH_OUT``:

* ``jobs_per_second`` — submissions completed per wall-clock second;
* ``coalescing_hit_rate`` / ``cache_hit_rate`` / ``duplicate_work_avoided``
  — how much of the stream never reached a backend;
* ``latency`` — per-submission p50/p99/max seconds (submit → outcome).

The hard functional bar (exactly ``unique`` backend executions for
``total`` submissions) is enforced always — it is deterministic, not a
timing claim.  Timing numbers are recorded, never gated, so a loaded CI
machine cannot fail the build on noise.

The ``shard_scaling`` section measures the multi-process cluster
(:mod:`repro.cluster`) on a compute-bound all-unique mix at 1, 2 and 4
shards with a fresh cache per run.  Thread workers cannot beat the GIL on
this mix; shard processes can, so throughput should rise with the shard
count wherever cores exist.  The ≥1.5x bar at 4 shards is
enforced only under ``REPRO_STRICT_BENCH=1`` (the CI runners have the
cores; a 1-core laptop cannot scale and must not fail).
"""

import json
import time

import pytest

from repro import __version__
from repro.cluster import ClusterConfig, ClusterService
from repro.config import get_config
from repro.runtime import ResultCache, SimJob
from repro.serve import ServiceClient, ServiceConfig
from repro.workloads import GemmWorkload

#: Report file inside the ``bench_out`` directory (see conftest.py).
REPORT = "BENCH_serve.json"

#: The duplicate-heavy mix: (kernel dims, submissions of that kernel).
MIX = (
    ((16, 16, 16), 20),
    ((16, 16, 32), 10),
    ((24, 24, 16), 10),
    ((32, 32, 16), 5),
    ((8, 8, 64), 5),
)


def _jobs():
    jobs = []
    for (m, n, k), copies in MIX:
        workload = GemmWorkload(name=f"bench_serve_{m}x{n}x{k}", m=m, n=n, k=k)
        jobs.extend([SimJob(workload=workload)] * copies)
    return jobs


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory, bench_out):
    jobs = _jobs()
    unique = len({job.job_hash() for job in jobs})
    cache = ResultCache(tmp_path_factory.mktemp("serve-bench-cache"))
    config = ServiceConfig(max_workers=2, max_backlog=len(jobs))
    latencies = []
    with ServiceClient(cache=cache, config=config) as client:
        wall_start = time.perf_counter()
        tickets = []
        for job in jobs:
            submit_time = time.perf_counter()
            ticket = client.submit(job, client_name=f"bench{len(tickets) % 4}")
            ticket.add_done_callback(
                lambda _t, t0=submit_time: latencies.append(time.perf_counter() - t0)
            )
            tickets.append(ticket)
        outcomes = [ticket.result(timeout=120) for ticket in tickets]
        wall = time.perf_counter() - wall_start
        stats = client.stats()

    assert all(outcome.utilization > 0 for outcome in outcomes)
    latencies.sort()
    results = {
        "package_version": __version__,
        "workload_mix": [
            {"kernel": f"{m}x{n}x{k}", "submissions": copies}
            for (m, n, k), copies in MIX
        ],
        "submissions": len(jobs),
        "unique_jobs": unique,
        "executed": stats["executed"],
        "coalesced": stats["coalesced"],
        "cache_hits": stats["cache_hits"],
        "coalescing_hit_rate": stats["coalescing_hit_rate"],
        "cache_hit_rate": stats["cache_hit_rate"],
        "duplicate_work_avoided": 1.0 - stats["executed"] / len(jobs),
        "wall_seconds": wall,
        "jobs_per_second": len(jobs) / wall,
        "latency": {
            "p50_seconds": _percentile(latencies, 0.50),
            "p99_seconds": _percentile(latencies, 0.99),
            "max_seconds": latencies[-1],
            "samples": len(latencies),
        },
        "config": {"max_workers": config.max_workers, "max_backlog": config.max_backlog},
    }
    # Merge-write: other benchmark files (e.g. the replay regimes) may have
    # written their sections into the same report already this run.
    data = {}
    path = bench_out / REPORT
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data.update(results)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return results


def test_duplicates_never_resimulate(bench_results):
    """The functional bar: 50 submissions, exactly `unique` executions."""
    assert bench_results["executed"] == bench_results["unique_jobs"]
    assert bench_results["duplicate_work_avoided"] == pytest.approx(
        1.0 - bench_results["unique_jobs"] / bench_results["submissions"]
    )


def test_stream_was_duplicate_heavy(bench_results):
    """Every duplicate was absorbed by coalescing or the cache."""
    absorbed = bench_results["coalesced"] + bench_results["cache_hits"]
    expected = bench_results["submissions"] - bench_results["unique_jobs"]
    assert absorbed == expected
    assert bench_results["coalescing_hit_rate"] + bench_results["cache_hit_rate"] == (
        pytest.approx(expected / bench_results["submissions"])
    )


def test_latency_distribution_recorded(bench_results):
    latency = bench_results["latency"]
    assert latency["samples"] == bench_results["submissions"]
    assert 0 < latency["p50_seconds"] <= latency["p99_seconds"] <= latency["max_seconds"]
    assert bench_results["jobs_per_second"] > 0


def test_bench_report_written(bench_results, bench_out):
    data = json.loads((bench_out / REPORT).read_text(encoding="utf-8"))
    assert data["executed"] == bench_results["executed"]
    assert data["latency"]["p99_seconds"] == bench_results["latency"]["p99_seconds"]
    assert data["submissions"] == 50


# ----------------------------------------------------------------------
# Shard scaling: the multi-process cluster vs the GIL.
# ----------------------------------------------------------------------
#: Shard counts of the scaling curve.
SHARD_COUNTS = (1, 2, 4)
#: All-unique compute-bound jobs per run (same kernel, distinct seeds).
SCALING_JOBS = 8
#: Kernel dimension; 48x48x48 simulates long enough (~70 ms) that process
#: startup and protocol overhead are small against the simulation itself.
SCALING_DIM = 48
#: Required 4-shard vs 1-shard throughput ratio under REPRO_STRICT_BENCH=1.
MIN_SHARD_SCALING = 1.5
STRICT_BENCH = get_config().strict_bench


def _scaling_jobs():
    workload = GemmWorkload(
        name="bench_shard_scaling", m=SCALING_DIM, n=SCALING_DIM, k=SCALING_DIM
    )
    return [SimJob(workload=workload, seed=seed) for seed in range(SCALING_JOBS)]


@pytest.fixture(scope="module")
def shard_scaling(bench_results, tmp_path_factory, bench_out):
    """Run the compute-bound mix at each shard count; extend BENCH_serve.json.

    Depends on ``bench_results`` so the report file exists to be extended —
    the ``shard_scaling`` key lands in the same JSON the single-process
    numbers live in.
    """
    jobs = _scaling_jobs()
    runs = []
    for shards in SHARD_COUNTS:
        # A fresh cache per run: every job must actually execute, so the
        # curve measures simulation throughput, not cache reads.
        cache_dir = tmp_path_factory.mktemp(f"serve-bench-shards{shards}")
        cluster = ClusterService(
            cache_dir=cache_dir,
            config=ClusterConfig(shards=shards, worker_threads=1),
        )
        try:
            start = time.perf_counter()
            outcomes = cluster.run(jobs, client_name="bench")
            wall = time.perf_counter() - start
            stats = cluster.stats_dict()
        finally:
            cluster.close()
        assert len(outcomes) == len(jobs)
        runs.append(
            {
                "shards": shards,
                "wall_seconds": wall,
                "jobs_per_second": len(jobs) / wall,
                "executed": stats["executed"],
                "restarts": stats["restarts"],
            }
        )
    by_shards = {run["shards"]: run for run in runs}
    section = {
        "kernel": f"{SCALING_DIM}x{SCALING_DIM}x{SCALING_DIM}",
        "jobs": len(jobs),
        "runs": runs,
        "speedup_4_vs_1": (
            by_shards[4]["jobs_per_second"] / by_shards[1]["jobs_per_second"]
        ),
        "strict_bench": STRICT_BENCH,
        "min_speedup_enforced": MIN_SHARD_SCALING if STRICT_BENCH else None,
    }
    path = bench_out / REPORT
    data = json.loads(path.read_text(encoding="utf-8"))
    data["shard_scaling"] = section
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return section


def test_shard_runs_execute_everything(shard_scaling):
    """The functional bar at every shard count: no lost or duplicated work,
    no supervisor intervention on a healthy run."""
    for run in shard_scaling["runs"]:
        assert run["executed"] == shard_scaling["jobs"], run
        assert run["restarts"] == 0, run


def test_shard_scaling_recorded(shard_scaling, bench_out):
    data = json.loads((bench_out / REPORT).read_text(encoding="utf-8"))
    recorded = data["shard_scaling"]
    assert [run["shards"] for run in recorded["runs"]] == list(SHARD_COUNTS)
    assert all(run["jobs_per_second"] > 0 for run in recorded["runs"])
    assert recorded["speedup_4_vs_1"] == shard_scaling["speedup_4_vs_1"]


@pytest.mark.skipif(
    not STRICT_BENCH,
    reason="shard-scaling bar enforced only under REPRO_STRICT_BENCH=1 "
    "(needs >= 4 cores; the ratio is always recorded in BENCH_serve.json)",
)
def test_shard_scaling_speedup(shard_scaling):
    """4 shards must beat 1 shard by >= MIN_SHARD_SCALING on real cores."""
    assert shard_scaling["speedup_4_vs_1"] >= MIN_SHARD_SCALING, shard_scaling


# ----------------------------------------------------------------------
# Tracing overhead: the disabled hooks must be (near) free.
# ----------------------------------------------------------------------
#: Generous per-submission hook-count assumption: event-bus publishes,
#: queue-depth notifications, engine begin/end and the write-back probe.
HOOKS_PER_SUBMISSION = 16
#: The telemetry layer's promise: with tracing off, the hooks cost less
#: than this fraction of a median submission (docs/OBSERVABILITY.md).
MAX_DISABLED_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def tracing_overhead(bench_results, bench_out):
    """Measure the disabled-path hook (`get_tracer() is None` check) and
    bound its per-submission cost against the measured p50 latency.

    The hook is timed directly (200k iterations, empty-loop baseline
    subtracted) rather than via an A/B stream run — two wall-clock runs
    of the same stream differ by far more than 5% on a loaded machine,
    while the per-call cost is stable and the claim composes: cost per
    hook x hooks per submission vs the p50 the stream just measured.
    """
    from repro.obs.trace import get_tracer

    assert get_tracer() is None, "a tracer leaked into the benchmark run"
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        if get_tracer() is not None:  # the exact disabled-path hook shape
            raise AssertionError("tracer unexpectedly installed")
    hook_wall = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    empty_wall = time.perf_counter() - start
    hook_seconds = max(0.0, (hook_wall - empty_wall) / iterations)
    p50 = bench_results["latency"]["p50_seconds"]
    overhead = (hook_seconds * HOOKS_PER_SUBMISSION) / p50
    section = {
        "hook_ns_disabled": hook_seconds * 1e9,
        "hooks_per_submission_assumed": HOOKS_PER_SUBMISSION,
        "p50_latency_seconds": p50,
        "overhead_fraction_vs_p50": overhead,
        "max_overhead_enforced": MAX_DISABLED_OVERHEAD,
    }
    path = bench_out / REPORT
    data = json.loads(path.read_text(encoding="utf-8"))
    data["tracing"] = section
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return section


def test_disabled_tracing_overhead_under_bar(tracing_overhead):
    """The always-on telemetry hooks stay under 5% of a median submission."""
    assert tracing_overhead["overhead_fraction_vs_p50"] < MAX_DISABLED_OVERHEAD, (
        tracing_overhead
    )


def test_tracing_overhead_recorded(tracing_overhead, bench_out):
    data = json.loads((bench_out / REPORT).read_text(encoding="utf-8"))
    assert data["tracing"]["hook_ns_disabled"] >= 0
    assert data["tracing"]["overhead_fraction_vs_p50"] == (
        tracing_overhead["overhead_fraction_vs_p50"]
    )
