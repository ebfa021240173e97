"""ClusterService end-to-end: dispatch, coalescing, supervision, recovery.

The acceptance tests of the sharded service live here:

* kill a shard mid-burst → the supervisor restarts it, the jobs its slots
  wait on are resent to the replacement, and every coalesced waiter
  receives exactly one consistent outcome — zero lost, zero duplicated;
* stop a shard (``SIGSTOP``) holding a job → it is killed as hung and
  replaced, and the job completes;
* crash the whole daemon (``terminate``) → a new cluster on the same
  journal resubmits the unfinished backlog and completes it.
"""

import itertools
import os
import signal
import threading

import pytest
from cluster_helpers import release, started_handle, stopped, wait_for

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    ShardFailedError,
)
from repro.runtime import ResultCache, register_backend
from repro.runtime.backends import SimulationBackend
from repro.serve import ServiceClosedError

_LOCAL_COUNTER = itertools.count()


def _fast_config(shards=2, **overrides):
    """Supervision tuned for tests: tight heartbeats, quick backoff."""
    settings = dict(
        shards=shards,
        worker_threads=1,
        heartbeat_interval=0.1,
        heartbeat_timeout=5.0,
        backoff_base=0.05,
        backoff_cap=0.2,
        ready_timeout=15.0,
        shutdown_timeout=30.0,
    )
    settings.update(overrides)
    return ClusterConfig(**settings)


# ----------------------------------------------------------------------
# Plain serving.
# ----------------------------------------------------------------------
class TestClusterServing:
    def test_run_executes_every_job(self, tmp_path, instant_backend, make_job):
        jobs = [make_job(instant_backend.name, tag=i) for i in range(8)]
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            outcomes = cluster.run(jobs)
            assert [o.job_hash for o in outcomes] == [j.job_hash() for j in jobs]
            assert cluster.counters.executed == len(jobs)
            assert cluster.counters.failed == 0
            assert cluster.restarts == 0

    def test_shard_runs_execute_everything(self, tmp_path, instant_backend, make_job):
        """At 1, 2 and 4 shards: no lost or duplicated work, and no
        supervisor intervention on a healthy run."""
        jobs = [make_job(instant_backend.name, tag=i) for i in range(8)]
        for shards in (1, 2, 4):
            with ClusterService(
                cache_dir=tmp_path / f"cache{shards}", config=_fast_config(shards)
            ) as cluster:
                assert len(cluster.run(jobs)) == len(jobs)
                assert cluster.counters.executed == len(jobs), shards
                assert cluster.restarts == 0, shards

    def test_duplicates_coalesce_at_the_parent(
        self, tmp_path, gated_backend, make_job
    ):
        backend = gated_backend()
        job = make_job(backend.name)
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            first = cluster.submit(job)
            second = cluster.submit(job)
            assert not first.coalesced
            assert second.coalesced
            release(backend)
            # One execution, one outcome object, two waiters.
            assert first.result(timeout=30) is second.result(timeout=30)
            assert cluster.counters.coalesced == 1
            assert cluster.counters.executed == 1

    def test_every_dispatched_job_settles_with_an_outcome(
        self, tmp_path, gated_backend, make_job
    ):
        """The parent is the cluster's only admission point: one shard queues
        a burst well past a thread service's default backlog (64) and bounces
        none of it."""
        backend = gated_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(100)]
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config(shards=1)
        ) as cluster:
            tickets = [cluster.submit(job) for job in jobs]
            wait_for(
                lambda: cluster.snapshot()["queue_depth"] == len(jobs) - 1,
                message="the shard to queue all but the job it holds",
            )
            release(backend)
            outcomes = [ticket.result(timeout=60) for ticket in tickets]
            assert [o.job_hash for o in outcomes] == [j.job_hash() for j in jobs]
            assert cluster.counters.executed == len(jobs)
            assert cluster.counters.failed == 0

    def test_cache_hit_after_completion(self, tmp_path, instant_backend, make_job):
        job = make_job(instant_backend.name)
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            cluster.run([job])
            again = cluster.submit(job)
            assert again.cache_hit
            assert again.result(timeout=5).cache_hit
            assert cluster.counters.cache_hits == 1

    def test_shards_share_one_cache(self, tmp_path, gated_backend, make_job):
        """Both shard processes write back into the same cache directory."""
        backend = gated_backend(touch=True)
        jobs = [make_job(backend.name, tag=i) for i in range(8)]
        cache_root = tmp_path / "cache"
        with ClusterService(cache_dir=cache_root, config=_fast_config()) as cluster:
            tickets = [cluster.submit(job) for job in jobs]
            # The gate holds the first two jobs until each shard runs one.
            wait_for(lambda: len(list(tmp_path.glob("started-*"))) == 2, message="both shards")
            release(backend)
            for ticket in tickets:
                ticket.result(timeout=30)
            assert set(cluster.snapshot()["executed_by"]) == {0, 1}
        assert len(ResultCache(cache_root)) == len(jobs)

    def test_backend_error_reaches_every_waiter(
        self, tmp_path, gated_backend, make_job
    ):
        backend = gated_backend(error="injected failure")
        job = make_job(backend.name)
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            first = cluster.submit(job)
            second = cluster.submit(job)  # held in flight: coalesces
            assert second.coalesced
            release(backend)
            with pytest.raises(ValueError, match="injected failure"):
                first.result(timeout=30)
            with pytest.raises(ValueError, match="injected failure"):
                second.result(timeout=30)
            assert cluster.counters.failed == 1  # one unique job failed once

    def test_closed_cluster_rejects_submissions(
        self, tmp_path, instant_backend, make_job
    ):
        cluster = ClusterService(cache_dir=tmp_path / "cache", config=_fast_config())
        cluster.close()
        with pytest.raises(ServiceClosedError):
            cluster.submit(make_job(instant_backend.name))
        cluster.close()  # idempotent

    def test_snapshot_aggregates_shards(self, tmp_path, instant_backend, make_job):
        """The parent settles every job, so its snapshot counts per shard
        by itself — without one frame to a shard (no supervisor pings
        either: the heartbeat interval outlasts the test)."""
        jobs = [make_job(instant_backend.name, tag=i) for i in range(6)]
        config = _fast_config(heartbeat_interval=60.0)
        with ClusterService(cache_dir=tmp_path / "cache", config=config) as cluster:
            cluster.run(jobs)
            sent = []
            for handle in cluster._handles:
                handle.send = sent.append
            snapshot = cluster.snapshot()
            for handle in cluster._handles:
                del handle.send  # the class's send again, for close()
            assert sent == []
            assert snapshot["shard_count"] == 2
            assert snapshot["inflight"] == snapshot["queue_depth"] == 0
            assert snapshot["executed"] == len(jobs)
            assert snapshot["restarts"] == 0
            shards = {row["shard"]: row for row in snapshot["shards"]}
            assert set(shards) == {0, 1}
            assert all(row["alive"] and row["pid"] for row in shards.values())
            # Keyed by the shard that ran each job.
            assert set(snapshot["executed_by"]) <= {0, 1}
            assert sum(snapshot["executed_by"].values()) == len(jobs)
            assert snapshot["latency"]["count"] == len(jobs)

    def test_non_draining_close_cancels_what_never_started(
        self, tmp_path, gated_backend, make_job
    ):
        """``close(drain=False)`` lets the running job finish; the three
        jobs still waiting in the parent's queue are cancelled — not failed
        — and their waiters get ``ServiceClosedError``."""
        backend = gated_backend(touch=True)
        jobs = [make_job(backend.name, tag=i) for i in range(4)]
        cluster = ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config(shards=1)
        )
        tickets = [cluster.submit(job) for job in jobs]
        started_handle(cluster, tmp_path)
        # The gate opens only once close() is under way.
        opener = threading.Timer(0.3, release, args=(backend,))
        opener.start()
        cluster.close(drain=False)
        opener.join()
        results = []
        for ticket in tickets:
            try:
                results.append(ticket.result(timeout=5).job_hash)
            except ServiceClosedError:
                results.append(None)
        assert sum(result is not None for result in results) == 1
        stats = cluster.stats_dict()
        assert (stats["executed"], stats["failed"], stats["cancelled"]) == (1, 0, 3)

    def test_priority_orders_the_parents_queue(self, tmp_path, gated_backend, make_job):
        """One fair queue for both transports: while the shard runs a job, a
        later ``priority=0`` submission starts before an earlier
        ``priority=1`` one (lower pops first), and ``on_event`` hears it."""
        backend = gated_backend(touch=True)
        started = []

        def on_event(event):
            if event.kind == "started":
                started.append(event.workload)

        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config(shards=1), on_event=on_event
        ) as cluster:
            held = cluster.submit(make_job(backend.name, tag=0))
            started_handle(cluster, tmp_path)
            later = cluster.submit(make_job(backend.name, tag=1), priority=1)
            urgent = cluster.submit(make_job(backend.name, tag=2), priority=0)
            release(backend)
            for ticket in (held, later, urgent):
                ticket.result(timeout=30)
        assert started == ["cluster_0", "cluster_2", "cluster_1"]

    @pytest.mark.parametrize("ready_timeout", [0, -1])
    def test_non_positive_ready_timeout_is_rejected(self, ready_timeout):
        """Before any fork: a negative timeout used to orphan the child."""
        with pytest.raises(ValueError, match="ready_timeout"):
            ClusterConfig(ready_timeout=ready_timeout)

    def test_simulator_duck_types_onto_the_cluster(
        self, tmp_path, instant_backend, make_job
    ):
        """The ISSUE's surface requirement: ``Simulator(service=...)``
        works with a cluster exactly as with a ``ServiceClient``."""
        from repro.runtime import Simulator

        jobs = [make_job(instant_backend.name, tag=i) for i in range(4)]
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            simulator = Simulator(cache=None, service=cluster)
            outcome = simulator.simulate(jobs[0])
            assert outcome.job_hash == jobs[0].job_hash()
            outcomes = simulator.simulate_many(jobs)
            assert [o.job_hash for o in outcomes] == [j.job_hash() for j in jobs]
            assert cluster.counters.executed == len(jobs)  # job 0 not re-run

    def test_stats_dict_has_the_serve_cli_keys(self, tmp_path):
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            stats = cluster.stats_dict()
        for key in (
            "submitted",
            "executed",
            "coalesced",
            "cache_hits",
            "coalescing_hit_rate",
            "cache_hit_rate",
            "restarts",
        ):
            assert key in stats


# ----------------------------------------------------------------------
# Supervision: crashes mid-burst.
# ----------------------------------------------------------------------
class TestSupervision:
    def test_killed_shard_restarts_and_requeues(
        self, tmp_path, gated_backend, make_job
    ):
        """The tentpole acceptance test: kill a shard mid-burst.

        The job the killed shard's slot waits on is resent to the
        restarted incarnation; every ticket (coalesced ones included)
        resolves to exactly one consistent outcome.
        """
        backend = gated_backend(touch=True)
        jobs = [make_job(backend.name, tag=i) for i in range(8)]
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config()
        ) as cluster:
            tickets = [cluster.submit(job) for job in jobs]
            # Coalesced duplicates of the first two jobs ride along.
            duplicates = [cluster.submit(jobs[0]), cluster.submit(jobs[1])]
            assert all(t.coalesced for t in duplicates)

            # A shard that genuinely *started* simulating is the victim.
            victim = started_handle(cluster, tmp_path)
            victim_index = victim.index
            victim.process.kill()
            wait_for(
                lambda: cluster.restarts >= 1,
                message="the supervisor to restart the killed shard",
            )
            release(backend)

            outcomes = [t.result(timeout=60) for t in tickets]
            assert [o.job_hash for o in outcomes] == [j.job_hash() for j in jobs]
            # Coalesced waiters share the original future: same object.
            assert duplicates[0].result(timeout=60) is outcomes[0]
            assert duplicates[1].result(timeout=60) is outcomes[1]
            assert cluster.restarts >= 1
            assert cluster.counters.requeued >= 1
            assert cluster.counters.failed == 0
            # Replacement is a different process, same shard index.
            replacement = cluster._handles[victim_index]
            assert replacement is not victim
            assert replacement.alive()

    def test_hung_shard_is_killed_and_replaced(self, tmp_path, gated_backend, make_job):
        """A shard that holds a job and stops answering (``SIGSTOP``) is
        killed as hung after ``heartbeat_timeout``, restarted, and the job
        completes on the replacement — no waiter fails."""
        backend = gated_backend(touch=True)
        job = make_job(backend.name)
        with ClusterService(
            cache_dir=tmp_path / "cache", config=_fast_config(heartbeat_timeout=1.0)
        ) as cluster:
            reasons = []
            recover = cluster._supervisor._recover

            def spy(index, handle, reason):
                reasons.append(reason)
                recover(index, handle, reason)

            cluster._supervisor._recover = spy
            ticket = cluster.submit(job)
            victim = started_handle(cluster, tmp_path)
            os.kill(victim.process.pid, signal.SIGSTOP)
            pid = victim.process.pid
            wait_for(lambda: stopped(pid), timeout=10.0, message="the shard to stop")
            release(backend)  # the stopped shard cannot finish it
            assert ticket.result(timeout=30).job_hash == job.job_hash()
            assert reasons == ["hung"]
            assert victim.process.exitcode == -signal.SIGKILL
            assert cluster._handles[victim.index] is not victim
            assert cluster.restarts == 1 and cluster.counters.requeued == 1
            assert cluster.counters.failed == 0

    def test_crash_looping_shard_fails_its_jobs(self, tmp_path, make_job):
        """A shard that dies on every incarnation is eventually given up on
        and its waiters receive ShardFailedError instead of hanging."""

        class ExitBackend(SimulationBackend):
            def __init__(self, name):
                self.name = name

            def execute(self, job):
                os._exit(3)  # kill the whole shard process, no cleanup

        backend = ExitBackend(f"cluster-exit-{next(_LOCAL_COUNTER)}")
        register_backend(backend)
        job = make_job(backend.name)
        # One shard owns everything; a huge heartbeat interval keeps pongs
        # from marking doomed incarnations "productive" between crashes.
        config = _fast_config(
            shards=1,
            heartbeat_interval=30.0,
            max_restarts=2,
            backoff_base=0.01,
            backoff_cap=0.05,
        )
        with ClusterService(cache_dir=tmp_path / "cache", config=config) as cluster:
            ticket = cluster.submit(job)
            with pytest.raises(ShardFailedError):
                ticket.result(timeout=60)
            # The dead shard now rejects new submissions immediately.
            with pytest.raises(ShardFailedError):
                cluster.submit(make_job(backend.name, tag=99))
            assert cluster.counters.failed >= 1


# ----------------------------------------------------------------------
# Durability: the daemon dies, the journal resumes the backlog.
# ----------------------------------------------------------------------
class TestJournalRecovery:
    def test_daemon_restart_replays_unfinished_backlog(
        self, tmp_path, gated_backend, make_job
    ):
        backend = gated_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(4)]
        journal_path = tmp_path / "serve.jsonl"
        cache_root = tmp_path / "cache"

        first = ClusterService(
            cache_dir=cache_root, config=_fast_config(), journal=journal_path
        )
        tickets = [first.submit(job) for job in jobs]
        # Submissions are journaled before dispatch: all four on disk now.
        assert journal_path.read_text().count('"submitted"') == 4
        first.terminate()  # the daemon crashes; the gate never opened
        for ticket in tickets:
            with pytest.raises(ServiceClosedError):
                ticket.result(timeout=5)

        release(backend)  # the backlog may proceed after the restart
        second = ClusterService(
            cache_dir=cache_root, config=_fast_config(), journal=journal_path
        )
        try:
            assert second.counters.recovered == 4
            assert second.wait_idle(timeout=60), "recovered backlog never drained"
            # Every replayed job completed and is durably cached: new
            # submissions resolve instantly without touching a shard.
            for job in jobs:
                ticket = second.submit(job)
                assert ticket.cache_hit
                assert ticket.result(timeout=5).job_hash == job.job_hash()
        finally:
            second.close()

    def test_completed_jobs_survive_restart_without_reexecution(
        self, tmp_path, instant_backend, make_job
    ):
        """Cache-less cluster: completions ride in the journal itself."""
        job = make_job(instant_backend.name)
        journal_path = tmp_path / "serve.jsonl"

        first = ClusterService(config=_fast_config(), journal=journal_path)
        try:
            outcome = first.run([job])[0]
        finally:
            first.close()

        second = ClusterService(config=_fast_config(), journal=journal_path)
        try:
            assert second.counters.recovered == 0
            ticket = second.submit(job)
            assert ticket.cache_hit  # served from the journal replay
            assert ticket.result(timeout=5).job_hash == outcome.job_hash
            assert second.counters.journal_hits == 1
            assert second.counters.executed == 0
        finally:
            second.close()

    def test_journal_hit_leaves_the_executed_outcome_unflagged(
        self, tmp_path, instant_backend, make_job
    ):
        """Cache-less cluster: a duplicate served from the journal gets a
        flagged copy; the executing caller's outcome still reads executed."""
        job = make_job(instant_backend.name)
        with ClusterService(
            config=_fast_config(shards=1), journal=tmp_path / "serve.jsonl"
        ) as cluster:
            first = cluster.run([job])[0]
            ticket = cluster.submit(job)
            duplicate = ticket.result(timeout=30)
            assert ticket.cache_hit and cluster.counters.journal_hits == 1
            assert duplicate.cache_hit and duplicate is not first
            assert not first.cache_hit

    def test_fresh_journal_is_started_when_absent(
        self, tmp_path, instant_backend, make_job
    ):
        journal_path = tmp_path / "fresh.jsonl"
        with ClusterService(
            cache_dir=tmp_path / "cache",
            config=_fast_config(),
            journal=journal_path,
        ) as cluster:
            cluster.run([make_job(instant_backend.name)])
        text = journal_path.read_text()
        assert text.count('"submitted"') == 1
        assert text.count('"completed"') == 1
