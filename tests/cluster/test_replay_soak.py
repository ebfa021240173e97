"""Soak test: shard crash mid-Poisson-burst under sustained replay load.

``test_cluster_service.py`` proves one-shot crash recovery; this suite
extends it to *sustained* load: a seeded Poisson arrival trace streams into
a 2-shard cluster, one shard is killed while its backlog is genuinely in
flight, and after the supervisor restarts it the run must finish with

* **zero lost outcomes** — every submission's ticket resolves;
* **zero duplicated outcomes** — per job hash, exactly one consistent
  result (coalesced waiters share one object, repeats agree bit-for-bit);
* **monotone registry counters** — periodic ``stats_dict()`` samples taken
  throughout the churn never observe any counter decreasing (a restart
  must not reset the cluster-level registry).

The arrival schedule comes from the replay harness (same seed fixture as
the fuzz suite: ``REPRO_FUZZ_SEED`` reproduces a failure exactly).
"""

import threading
import time

from cluster_helpers import release, started_handle, wait_for

from repro.cluster import ClusterConfig, ClusterService
from repro.runtime import SimJob
from repro.serve.replay import build_trace
from repro.workloads import GemmWorkload

REQUESTS = 36
POOL = 12


def _soak_config():
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


def _workload_pool(size):
    return [GemmWorkload(name=f"soak_{i}", m=4 + i, n=8, k=8) for i in range(size)]


class TestReplaySoak:
    def test_shard_killed_mid_burst_loses_and_duplicates_nothing(
        self, tmp_path, gated_backend, fuzz_seed
    ):
        backend = gated_backend(touch=True)
        trace = build_trace(
            "poisson", REQUESTS, rate=2000.0, pool=_workload_pool(POOL), seed=fuzz_seed
        )
        samples = []
        stop_sampling = threading.Event()
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_soak_config()
        ) as cluster:

            def _sample():
                while not stop_sampling.wait(0.02):
                    samples.append(cluster.stats_dict())

            sampler = threading.Thread(target=_sample, daemon=True)
            sampler.start()

            # Stream the trace in arrival order (compressed schedule); the
            # gate holds every execution, so the backlog piles up in flight.
            start = time.monotonic()
            tickets = []
            for event in trace:
                delay = start + event.at * 0.5 - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                job = SimJob(workload=event.workload, backend=backend.name)
                tickets.append(cluster.submit(job, client_name="soak"))

            victim = started_handle(cluster, tmp_path)
            victim.process.kill()
            wait_for(
                lambda: cluster.restarts >= 1,
                message="the supervisor to restart the killed shard",
            )
            release(backend)

            outcomes = [ticket.result(timeout=60) for ticket in tickets]
            stop_sampling.set()
            sampler.join(timeout=5)
            samples.append(cluster.stats_dict())

            # --- zero lost outcomes ---------------------------------------
            assert len(outcomes) == REQUESTS
            for ticket, outcome in zip(tickets, outcomes):
                assert outcome.job_hash == ticket.job_hash

            # --- zero duplicated outcomes ---------------------------------
            by_hash = {}
            for ticket, outcome in zip(tickets, outcomes):
                by_hash.setdefault(ticket.job_hash, []).append(outcome)
            for job_hash, group in by_hash.items():
                cycle_counts = {o.kernel_cycles for o in group}
                assert len(cycle_counts) == 1, (
                    f"{job_hash}: inconsistent duplicate outcomes {cycle_counts}"
                )
            # Every unique job was simulated at most once per incarnation
            # chain: executions ≤ uniques + requeued re-executions.
            stats = cluster.stats_dict()
            uniques = len(by_hash)
            assert stats["executed"] <= uniques + stats["requeued"]

            # --- accounting closes ----------------------------------------
            assert stats["submitted"] == REQUESTS
            assert stats["failed"] == 0
            assert cluster.restarts >= 1
            assert stats["requeued"] >= 1

        # --- monotone registry counters across the whole churn ------------
        assert len(samples) >= 2, "sampler never ran"
        counter_keys = [
            key
            for key, value in samples[-1].items()
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        assert "executed" in counter_keys and "submitted" in counter_keys
        for key in counter_keys:
            series = [s[key] for s in samples if key in s]
            assert all(a <= b for a, b in zip(series, series[1:])), (
                f"counter {key!r} went backwards during the soak: {series}"
            )
