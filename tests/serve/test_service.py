"""Edge-case tests of the in-process service.

Each test drives :class:`ServiceClient` from the test thread.  The
determinism levers used throughout: a ``threading.Event`` gate in the stub
backend holds jobs "in flight" for exactly as long as a test needs (a
gated worker cannot settle, so every duplicate submitted meanwhile
coalesces), and ``run(batch)`` admits its batch under one hold of the
service's lock.
"""

import threading
import time
import warnings

import pytest

from repro.runtime import ResultCache, SimJob
from repro.serve import (
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
    ServiceClient,
)
from repro.workloads import GemmWorkload


def until(predicate, timeout=10.0):
    """Poll ``predicate`` until true (or fail the test)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestCoalescing:
    def test_duplicate_burst_single_execution(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        job = make_job(backend.name)

        with ServiceClient(config=ServiceConfig(max_workers=4)) as service:
            # 50 submissions while the first is held in flight: the burst
            # the acceptance criterion describes.
            tickets = [service.submit(job, client_name=f"c{i}") for i in range(50)]
            gate.set()
            outcomes = [ticket.result(30) for ticket in tickets]
            stats = service.counters

        assert backend.calls == 1
        assert stats.executed == 1
        assert stats.submitted == 50
        assert stats.coalesced == 49
        assert stats.coalescing_hit_rate == pytest.approx(49 / 50)
        # Every caller receives the *identical* outcome object.
        assert all(outcome is outcomes[0] for outcome in outcomes)
        assert tickets[0].coalesced is False
        assert all(ticket.coalesced for ticket in tickets[1:])

    def test_ungated_uncached_batch_of_duplicates_executes_once(
        self, stub_backend, make_job
    ):
        # No gate, no cache: only the one hold of the lock in run() keeps a
        # worker from retiring the entry between two duplicates.
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient(config=ServiceConfig(max_workers=4)) as service:
            outcomes = service.run([job] * 50)
        assert backend.calls == 1
        assert service.counters.executed == 1 and service.counters.coalesced == 49
        assert all(outcome is outcomes[0] for outcome in outcomes)

    def test_distinct_jobs_do_not_coalesce(self, stub_backend, make_job):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(3)]

        with ServiceClient() as service:
            outcomes = service.run(jobs)

        assert backend.calls == 3
        assert [o.job_hash for o in outcomes] == [j.job_hash() for j in jobs]

    def test_coalesced_events_emitted(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        job = make_job(backend.name)

        events = []
        with ServiceClient(on_event=events.append) as service:
            tickets = [service.submit(job) for _ in range(3)]
            gate.set()
            tickets[-1].result(30)

        kinds = [event.kind for event in events]
        assert kinds.count("submitted") == 3
        assert kinds.count("coalesced") == 2
        assert kinds.count("started") == 1
        finished = [e for e in events if e.kind == "finished"]
        assert len(finished) == 1 and finished[0].waiters == 3
        # Sequence numbers are the total order.
        assert [e.seq for e in events] == sorted(e.seq for e in events)


class TestBackpressure:
    def test_queue_full_rejection(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(4)]
        events = []

        config = ServiceConfig(max_workers=1, max_backlog=2)
        with ServiceClient(config=config, on_event=events.append) as service:
            service.submit(jobs[0])
            until(lambda: backend.calls >= 1)  # the one worker holds job 0
            # The backlog holds the next two and the fourth must bounce.
            service.submit(jobs[1])
            service.submit(jobs[2])
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(jobs[3])
            assert excinfo.value.limit == 2
            assert service.counters.rejected == 1
            gate.set()

        assert "rejected" in [e.kind for e in events]

    def test_duplicates_bypass_the_queue(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(2)]

        config = ServiceConfig(max_workers=1, max_backlog=1)
        with ServiceClient(config=config) as service:
            service.submit(jobs[0])
            until(lambda: backend.calls >= 1)
            service.submit(jobs[1])
            # Backlog is now full, but identical submissions coalesce
            # without needing a queue slot.
            for _ in range(5):
                service.submit(jobs[1])
            assert service.counters.rejected == 0
            gate.set()

    def test_submit_wait_flows_through_small_backlog(self, stub_backend, make_job):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(6)]

        config = ServiceConfig(max_workers=1, max_backlog=1)
        with ServiceClient(config=config) as service:
            outcomes = service.run(jobs)
            rejected = service.counters.rejected

        assert len(outcomes) == 6
        assert rejected == 0
        assert backend.calls == 6

    def test_submit_wait_parked_on_a_full_backlog_is_woken_by_close(
        self, stub_backend, make_job
    ):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(3)]
        raised = []

        def waiter():
            try:
                service.submit_wait(jobs[2])
            except ServiceClosedError as error:
                raised.append(error)

        service = ServiceClient(config=ServiceConfig(max_workers=1, max_backlog=1))
        try:
            service.submit(jobs[0])
            until(lambda: backend.calls >= 1)
            service.submit(jobs[1])  # fills the backlog
            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            time.sleep(0.05)
            assert thread.is_alive()  # parked, not rejected
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            thread.join(timeout=10)
            assert not thread.is_alive() and len(raised) == 1
        finally:
            gate.set()
            service.close()
        assert service.counters.rejected == 0 and service.counters.submitted == 2


class TestFailure:
    def test_crash_surfaces_original_exception_to_all_waiters(
        self, stub_backend, make_job
    ):
        boom = RuntimeError("backend exploded")
        gate = threading.Event()
        backend = stub_backend(gate=gate, error=boom)
        job = make_job(backend.name)

        events = []
        with ServiceClient(on_event=events.append) as service:
            tickets = [service.submit(job, client_name=f"c{i}") for i in range(5)]
            gate.set()
            errors = []
            for ticket in tickets:
                with pytest.raises(RuntimeError) as excinfo:
                    ticket.result(30)
                errors.append(excinfo.value)
            failed = service.counters.failed

        assert backend.calls == 1
        assert failed == 1
        # Every coalesced waiter sees the *original* exception object.
        assert all(error is boom for error in errors)
        failed_events = [e for e in events if e.kind == "failed"]
        assert len(failed_events) == 1
        assert failed_events[0].waiters == 5
        assert "backend exploded" in failed_events[0].error

    def test_failure_is_not_cached(self, stub_backend, make_job, tmp_path):
        boom = ValueError("nope")
        backend = stub_backend(error=boom)
        job = make_job(backend.name)
        cache = ResultCache(tmp_path)

        with ServiceClient(cache=cache) as service:
            with pytest.raises(ValueError):
                service.submit(job).result(30)

        assert len(cache) == 0


class TestCache:
    def test_probe_before_scheduling(self, stub_backend, make_job, tmp_path):
        backend = stub_backend()
        job = make_job(backend.name)
        cache = ResultCache(tmp_path)

        with ServiceClient(cache=cache) as service:
            service.submit(job).result(30)
        assert backend.calls == 1

        events = []
        with ServiceClient(cache=cache, on_event=events.append) as service:
            ticket = service.submit(job)
            assert ticket.cache_hit is True and ticket.done()
            outcome = ticket.result(30)
            stats = service.counters

        assert backend.calls == 1  # nothing re-simulated
        assert outcome.cache_hit is True
        assert stats.cache_hits == 1 and stats.executed == 0
        kinds = [e.kind for e in events]
        assert kinds == ["submitted", "cache_hit", "finished"]

    def test_fresh_results_written_back(self, stub_backend, make_job, tmp_path):
        backend = stub_backend()
        job = make_job(backend.name)
        cache = ResultCache(tmp_path)

        with ServiceClient(cache=cache) as service:
            service.submit(job).result(30)

        assert job.job_hash() in cache

    def test_write_back_precedes_leaving_the_inflight_map(
        self, stub_backend, make_job, tmp_path
    ):
        """A later duplicate finds the entry or the cache, never neither:
        at ``finished`` (published by ``settle``, under the lock, as the
        entry leaves the map) the outcome is already in the cache."""
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(8)]
        cache = ResultCache(tmp_path)
        cached_at_finish = []

        def on_event(event):
            if event.kind == "finished":
                cached_at_finish.append(event.job_hash in cache)

        with ServiceClient(
            cache=cache, config=ServiceConfig(max_workers=4), on_event=on_event
        ) as service:
            service.run(jobs)
            # Each resubmission lands after its entry was retired.
            assert all(service.submit(job).cache_hit for job in jobs)

        assert cached_at_finish == [True] * 16
        assert backend.calls == 8


class TestShutdown:
    def test_drain_completes_inflight_and_queued(self, stub_backend, make_job):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(3)]

        service = ServiceClient(config=ServiceConfig(max_workers=1))
        tickets = [service.submit(job) for job in jobs]
        until(lambda: backend.calls >= 1)  # first job on the worker
        closer = threading.Thread(target=service.close, kwargs={"drain": True})
        closer.start()
        closer.join(timeout=0.05)
        assert closer.is_alive()  # close waits for the gated backend
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert all(ticket.done() for ticket in tickets)
        outcomes = [ticket.result(30) for ticket in tickets]

        assert backend.calls == 3  # queued jobs ran to completion too
        assert service.counters.cancelled == 0
        assert len(outcomes) == 3

    def test_non_draining_close_cancels_queued_but_finishes_running(
        self, stub_backend, make_job
    ):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        jobs = [make_job(backend.name, tag=i) for i in range(3)]

        events = []
        service = ServiceClient(config=ServiceConfig(max_workers=1), on_event=events.append)
        tickets = [service.submit(job) for job in jobs]
        until(lambda: backend.calls >= 1)  # job 0 is executing
        closer = threading.Thread(target=service.close, kwargs={"drain": False})
        closer.start()
        # The queued entries fail before the running one is released.
        for ticket in tickets[1:]:
            with pytest.raises(ServiceClosedError):
                ticket.result(30)
        assert closer.is_alive() and not tickets[0].done()
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        first = tickets[0].result(30)  # running job resolved

        assert backend.calls == 1  # queued jobs never ran
        assert first is not None
        assert service.counters.cancelled == 2
        assert [e.kind for e in events].count("cancelled") == 2

    def test_submit_after_close_raises(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)

        service = ServiceClient()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(job)
        with pytest.raises(ServiceClosedError):
            service.submit_wait(job)

    def test_close_idempotent(self):
        service = ServiceClient()
        service.close()
        service.close()
        assert service.closed


class TestProgress:
    def test_progress_events_stream_from_engine_yield_points(self):
        # A real cycle-level job with a tiny progress cadence: the lockstep
        # loop fires the callback every `progress_interval` cycles.
        job = SimJob(
            workload=GemmWorkload(name="serve_progress", m=16, n=16, k=16),
            engine="lockstep",
        )

        config = ServiceConfig(max_workers=1, progress_interval=4)
        events = []
        with ServiceClient(config=config, on_event=events.append) as service:
            outcome = service.submit(job).result(60)

        progress = [e for e in events if e.kind == "progress"]
        assert progress, "no progress events at a 4-cycle cadence"
        cycles = [e.cycles for e in progress]
        assert cycles == sorted(cycles)
        assert all(c >= 1 for c in cycles)
        assert outcome.functional_match is True
        # Progress stops once the entry has settled: nothing follows
        # ``finished``, and every progress event sits after ``started``.
        kinds = [e.kind for e in events]
        assert kinds[-1] == "finished"
        assert kinds.index("started") < kinds.index("progress")


class TestListeners:
    def test_listener_sees_lifecycle_in_order(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)

        events = []
        with ServiceClient(on_event=events.append) as service:
            service.submit(job).result(30)

        kinds = [event.kind for event in events]
        assert kinds == ["submitted", "queued", "started", "finished"]
        assert [event.seq for event in events] == [0, 1, 2, 3]

    def test_listener_reading_the_service_does_not_deadlock(
        self, stub_backend, make_job
    ):
        # ``on_event`` runs under the service's (re-entrant) lock, on
        # submitter and worker threads alike.
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(4)]
        seen = []

        def on_event(event):
            snapshot = service.snapshot()
            seen.append((event.kind, snapshot["queue_depth"], snapshot["inflight"]))

        with ServiceClient(on_event=on_event) as service:
            service.run(jobs)

        assert [kind for kind, _, _ in seen].count("finished") == 4
        # ``finished`` is published as the entry leaves the in-flight map.
        assert seen[-1] == ("finished", 0, 0)

    def test_done_callbacks_run_outside_the_lock(self, stub_backend, make_job):
        """``Entry.resolve`` runs after the lock is released: a callback may
        wait for *another* thread to use the service without deadlocking."""
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        job, other = make_job(backend.name), make_job(backend.name, tag=1)
        observed = []

        def on_done(_ticket):
            observed.append(threading.current_thread().name)
            probe = threading.Thread(
                target=lambda: observed.append(service.submit(other).job_hash)
            )
            probe.start()
            probe.join(timeout=10)
            observed.append(probe.is_alive())

        with ServiceClient(config=ServiceConfig(max_workers=1)) as service:
            ticket = service.submit(job)
            ticket.add_done_callback(on_done)  # not done yet: runs on the worker
            gate.set()
            ticket.result(30)
            until(lambda: len(observed) == 3)

        assert observed == ["repro-serve-0", other.job_hash(), False]


class TestRobustness:
    """Regressions: observers and cache failures must never strand waiters."""

    def test_raising_listener_does_not_break_the_service(self, stub_backend, make_job):
        backend = stub_backend()
        job = make_job(backend.name)
        received = []

        def on_event(event):
            received.append(event)
            raise BrokenPipeError("consumer went away")

        with ServiceClient(on_event=on_event) as service:
            outcome = service.submit(job).result(30)
            again = service.submit(job).result(30)

        assert outcome is not None and again is not None
        # A raise on every edge still hears every edge, numbered in order.
        assert [e.kind for e in received] == [
            "submitted", "queued", "started", "finished",
            "submitted", "queued", "started", "finished",
        ]
        assert [e.seq for e in received] == list(range(8))
        assert service.counters.executed == 2

    def test_cache_write_back_failure_still_resolves_waiters(
        self, stub_backend, make_job, tmp_path
    ):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        job = make_job(backend.name)

        class ExplodingCache(ResultCache):
            def put(self, key, outcome):
                raise OSError("disk full")

        cache = ExplodingCache(tmp_path)

        with ServiceClient(cache=cache) as service:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tickets = [service.submit(job) for _ in range(3)]
                gate.set()
                outcomes = [t.result(30) for t in tickets]
            messages = [str(w.message) for w in caught]

        assert backend.calls == 1
        assert all(o is outcomes[0] for o in outcomes)  # waiters all served
        assert any("write-back failed" in message for message in messages)
