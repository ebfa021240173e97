"""Blocking-API and runtime-integration tests.

Covers the :class:`ServiceClient` blocking API and the runtime surface
that routes through it — ``Simulator(service=...)``, also under an
``ExplorationEngine`` — including the acceptance criterion: a burst of 50
concurrent submissions of the same job performs exactly one backend
simulation and every caller receives the identical outcome.
"""

import threading

import pytest

from repro.runtime import ResultCache, Simulator
from repro.serve import QueueFullError, ServiceClient, ServiceConfig
from repro.workloads import GemmWorkload


class TestClientBasics:
    def test_fifty_submission_burst_single_simulation(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient(config=ServiceConfig(max_workers=4)) as client:
            outcomes = client.run([job] * 50)
            stats = client.stats()
        assert backend.calls == 1
        assert stats["executed"] == 1
        assert stats["submitted"] == 50
        assert stats["coalesced"] == 49
        assert len(outcomes) == 50
        assert all(outcome is outcomes[0] for outcome in outcomes)

    def test_submit_ticket_and_result(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient() as client:
            ticket = client.submit(job, client_name="alice")
            outcome = ticket.result(timeout=30)
        assert ticket.job_hash == job.job_hash()
        assert ticket.client == "alice"
        assert outcome.job_hash == job.job_hash()
        assert backend.calls == 1

    def test_queue_full_surfaces_through_sync_submit(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(4)]
        config = ServiceConfig(max_workers=1, max_backlog=1)
        client = ServiceClient(config=config)
        try:
            tickets = [client.submit(jobs[0])]  # picked up by the worker
            # Wait until the worker actually holds job 0 so the backlog
            # state is deterministic.
            deadline = threading.Event()
            for _ in range(200):
                if backend.calls >= 1:
                    break
                deadline.wait(0.01)
            assert backend.calls >= 1
            tickets.append(client.submit(jobs[1]))  # fills the backlog
            with pytest.raises(QueueFullError):
                client.submit(jobs[2])
        finally:
            gate.set()
            client.close()
        assert [t.result(30).job_hash for t in tickets] == [
            jobs[0].job_hash(),
            jobs[1].job_hash(),
        ]

    def test_backend_failure_propagates(self, stub_backend, make_job):
        boom = RuntimeError("kapow")
        backend = stub_backend(error=boom)
        job = make_job(backend.name)
        with ServiceClient() as client:
            ticket = client.submit(job)
            with pytest.raises(RuntimeError, match="kapow"):
                ticket.result(30)

    def test_events_and_stats_readable_after_close(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        events = []
        client = ServiceClient(on_event=events.append)
        client.run([job, job])
        client.close()
        kinds = [event.kind for event in events]
        assert "finished" in kinds and "coalesced" in kinds
        assert client.stats()["submitted"] == 2
        assert client.stats_dict()["executed"] == 1
        assert client.snapshot()["executed"] == 1

    def test_on_event_streaming_callback(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        streamed = []
        with ServiceClient(on_event=streamed.append) as client:
            client.run([job])
        assert [e.kind for e in streamed[:2]] == ["submitted", "queued"]

    def test_cache_dir_convenience(self, stub_backend, make_job, tmp_path):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient(cache_dir=tmp_path) as client:
            client.run([job])
        with ServiceClient(cache_dir=tmp_path) as client:
            ticket = client.submit(job)
            assert ticket.cache_hit is True
            ticket.result(30)
        assert backend.calls == 1


class TestRuntimeIntegration:
    def test_simulator_simulate_many_via_service_matches_direct(
        self, stub_backend, make_job
    ):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(3)] + [
            make_job(backend.name, tag=1)  # in-batch duplicate
        ]
        direct = Simulator().simulate_many(jobs)
        with ServiceClient() as client:
            routed = Simulator(service=client).simulate_many(jobs)
        assert [o.as_dict() for o in routed] == [o.as_dict() for o in direct]
        # 3 unique jobs executed twice (once per path): dedup still works.
        assert backend.calls == 6

    def test_simulator_single_simulate_via_service(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient() as client:
            simulator = Simulator(service=client)
            outcome = simulator.simulate(job)
        assert outcome.job_hash == job.job_hash()
        assert simulator.stats.executed == 1
        assert backend.calls == 1

    def test_simulator_rejects_a_cache_beside_a_service(self, tmp_path):
        """The service's cache is the one probed: a second, local cache
        would be probed first and double every miss."""
        with ServiceClient() as client:
            with pytest.raises(ValueError, match="service's cache"):
                Simulator(cache=ResultCache(tmp_path), service=client)
            with pytest.raises(ValueError, match="service's cache"):
                Simulator(cache_dir=tmp_path, service=client)
            assert Simulator(service=client).cache is client.cache

    def test_batches_larger_than_backlog_flow_through(self, stub_backend, make_job):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(12)]
        config = ServiceConfig(max_workers=2, max_backlog=2)
        with ServiceClient(config=config) as client:
            outcomes = Simulator(service=client).simulate_many(jobs)
            stats = client.stats()
        assert len(outcomes) == 12
        assert stats["rejected"] == 0  # cooperative backpressure, no bounces
        assert backend.calls == 12

    def test_exploration_engine_through_service(self, tmp_path):
        from repro.explore import (
            ExplorationEngine,
            GridStrategy,
            ParameterAxis,
            SearchSpace,
            parse_objectives,
        )

        space = SearchSpace(
            axes=(ParameterAxis.make("data_fifo_depth", (2, 4)),),
            name="serve_test",
        )
        workloads = [GemmWorkload(name="serve_explore", m=8, n=8, k=8)]

        def build(simulator):
            return ExplorationEngine(
                space=space,
                strategy=GridStrategy(),
                objectives=parse_objectives("cycles"),
                workloads=workloads,
                simulator=simulator,
            )

        direct = build(Simulator()).run(budget=2)
        with ServiceClient() as client:
            routed = build(Simulator(service=client)).run(budget=2)
            stats = client.stats()
        assert stats["executed"] == 2
        assert [e.metrics for e in routed.evaluations] == [
            e.metrics for e in direct.evaluations
        ]


    def test_exploration_counts_only_its_own_jobs_on_a_shared_service(self, tmp_path):
        """Another client runs a job on the same service before every batch
        (executed once, then cache hits): the report still counts only the
        engine's own simulations, not the service's counters."""
        from repro.explore import (
            ExplorationEngine,
            GridStrategy,
            ParameterAxis,
            SearchSpace,
            parse_objectives,
        )
        from repro.runtime import SimJob

        space = SearchSpace(
            axes=(ParameterAxis.make("data_fifo_depth", (2, 4, 8)),),
            name="serve_shared",
        )
        other = SimJob(workload=GemmWorkload(name="serve_other", m=8, n=8, k=8))
        with ServiceClient(cache_dir=tmp_path) as client:

            class Interleaved(GridStrategy):
                def propose(self, evaluated, remaining):
                    client.run([other], client_name="other")
                    return super().propose(evaluated, 1)

            report = ExplorationEngine(
                space=space,
                strategy=Interleaved(),
                objectives=parse_objectives("cycles"),
                workloads=[GemmWorkload(name="serve_explore", m=8, n=8, k=8)],
                simulator=Simulator(service=client),
            ).run(budget=10)
            stats = client.stats()
        assert (report.simulated, report.cache_hits) == (3, 0)
        assert (stats["executed"], stats["cache_hits"]) == (4, 3)


class TestClientClosedAndAccounting:
    def test_submit_and_run_after_close_raise_typed_error(
        self, stub_backend, make_job
    ):
        from repro.serve import ServiceClosedError

        backend = stub_backend()
        job = make_job(backend.name)
        client = ServiceClient()
        client.close()
        with pytest.raises(ServiceClosedError):
            client.submit(job)
        with pytest.raises(ServiceClosedError):
            client.run([job])

    def test_service_cache_hits_not_counted_as_executed(
        self, stub_backend, make_job, tmp_path
    ):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(2)]
        # Warm the *service's* cache through a first client.
        with ServiceClient(cache_dir=tmp_path) as client:
            client.run(jobs)
        assert backend.calls == 2
        # A simulator over a fresh client: everything resolves from the
        # service cache, so its stats must say "cache hits", not "executed".
        with ServiceClient(cache_dir=tmp_path) as client:
            simulator = Simulator(service=client)
            outcomes = simulator.simulate_many(jobs)
        assert backend.calls == 2  # nothing re-simulated
        assert simulator.stats.executed == 0
        assert simulator.stats.cache_hits == 2
        assert client.stats()["cache_hits"] == 2  # one probe each, at the service
        assert all(outcome.cache_hit for outcome in outcomes)

    def test_a_failing_job_counts_the_same_through_a_service_as_in_process(
        self, stub_backend, make_job
    ):
        """Through a service each entry settles with its own outcome or
        error: the failing job is ``failed`` and the rest ``executed``,
        exactly as in-process, where the error stops the batch first."""
        good, bad = stub_backend(), stub_backend(error=RuntimeError("boom"))
        jobs = [make_job(good.name, tag=0), make_job(bad.name, tag=1), make_job(good.name, tag=2)]
        with ServiceClient() as client:
            simulator = Simulator(service=client)
            with pytest.raises(RuntimeError, match="boom"):
                simulator.simulate_many(jobs)
            assert client.stats()["failed"] == 1
        stats = simulator.stats
        assert (stats.executed, stats.failed, stats.cancelled) == (2, 1, 0)
        local = Simulator()
        with pytest.raises(RuntimeError, match="boom"):
            local.simulate_many(jobs[1:])
        assert (local.stats.failed, local.stats.cancelled) == (1, 1)  # the rest never ran

    def test_simulator_counts_service_hits_separately(
        self, stub_backend, make_job, tmp_path
    ):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient(cache_dir=tmp_path) as client:
            Simulator(service=client).simulate(job)
        with ServiceClient(cache_dir=tmp_path) as client:
            simulator = Simulator(service=client)
            outcome = simulator.simulate(job)
        assert backend.calls == 1
        assert outcome.cache_hit
        assert simulator.stats.executed == 0
        assert simulator.stats.cache_hits == 1
