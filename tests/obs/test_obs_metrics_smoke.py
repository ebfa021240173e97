"""End-to-end metrics smoke test: a 2-shard cluster behind the exporter.

This mirrors the CI smoke job: bring up the sharded service with a durable
journal, crash it with an unfinished backlog, restart it (journal replay),
then scrape ``/metrics`` over real HTTP and assert the acceptance families
— per-shard executed counts, the journal replay counter, queue/hit-rate
gauges and the latency histogram buckets — are present and correct.
"""

import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.obs.http import MetricsServer
from repro.runtime import SimJob, SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend
from repro.serve import ServiceClosedError
from repro.workloads import GemmWorkload

from test_obs_exposition import parse_exposition


class FileGatedBackend(SimulationBackend):
    """Blocks executions (inside the shard process) until a file appears."""

    def __init__(self, name, gate_path, timeout=30.0):
        self.name = name
        self.gate_path = str(gate_path)
        self.timeout = timeout

    def execute(self, job):
        deadline = time.monotonic() + self.timeout
        while not Path(self.gate_path).exists():
            if time.monotonic() > deadline:
                raise TimeoutError("test gate never released")
            time.sleep(0.01)
        ideal = job.workload.ideal_compute_cycles(
            job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
        )
        return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


def _config():
    return ClusterConfig(
        shards=2,
        worker_threads=1,
        heartbeat_interval=0.1,
        heartbeat_timeout=5.0,
        backoff_base=0.05,
        backoff_cap=0.2,
        ready_timeout=15.0,
        shutdown_timeout=30.0,
    )


def test_two_shard_cluster_scrape(tmp_path):
    gate = tmp_path / "gate"
    backend = FileGatedBackend(f"obs-smoke-{time.time_ns()}", gate_path=gate)
    register_backend(backend)  # pre-fork: inherited by the shard workers
    jobs = [
        SimJob(
            workload=GemmWorkload(name=f"smoke_{i}", m=8, n=8, k=8),
            backend=backend.name,
            seed=i,
        )
        for i in range(4)
    ]
    journal_path = tmp_path / "serve.jsonl"
    cache_root = tmp_path / "cache"

    # Crash a first daemon with the backlog journaled but unfinished.
    first = ClusterService(
        cache_dir=cache_root, config=_config(), journal=journal_path
    )
    tickets = [first.submit(job) for job in jobs]
    first.terminate()
    for ticket in tickets:
        with pytest.raises(ServiceClosedError):
            ticket.result(timeout=5)

    gate.touch()  # the replayed backlog may proceed
    cluster = ClusterService(
        cache_dir=cache_root, config=_config(), journal=journal_path
    )
    try:
        assert cluster.counters.recovered == 4
        assert cluster.wait_idle(timeout=60), "recovered backlog never drained"
        with MetricsServer(cluster) as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
                text = resp.read().decode("utf-8")
    finally:
        cluster.close()

    families = parse_exposition(text)  # every line must be valid exposition

    # Journal replay count.
    assert "repro_journal_recovered_total 4" in (
        families["repro_journal_recovered_total"]["samples"]
    )
    # Per-shard liveness and executed counts (the parent's own counts).
    alive = families["repro_shard_alive"]["samples"]
    assert 'repro_shard_alive{shard="0"} 1' in alive
    assert 'repro_shard_alive{shard="1"} 1' in alive
    executed = families["repro_shard_executed_total"]["samples"]
    assert any('shard="0"' in line for line in executed)
    per_shard = [int(line.rsplit(" ", 1)[1]) for line in executed]
    assert sum(per_shard) == 4
    # Queue depth and hit-rate gauges.
    assert "repro_queue_depth 0" in families["repro_queue_depth"]["samples"]
    assert families["repro_coalescing_hit_rate"]["type"] == "gauge"
    assert families["repro_cache_hit_rate"]["type"] == "gauge"
    # Latency histogram: four executed jobs, cumulative buckets, +Inf row.
    latency = families["repro_latency_seconds"]
    assert latency["type"] == "histogram"
    assert "repro_latency_seconds_count 4" in latency["samples"]
    assert any('le="+Inf"' in line for line in latency["samples"])
    # Build info from the process-wide registry rides the same scrape.
    from repro import __version__

    assert f'repro_build_info{{version="{__version__}"}} 1' in (
        families["repro_build_info"]["samples"]
    )
