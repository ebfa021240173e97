"""Tests for the trace recorder and the service trace hooks.

The acceptance-level test drives a real (thread) service with tracing
installed and asserts the exported Chrome trace reconstructs the
submit → settle lifecycle of a coalesced job.
"""

import json
import sys
import threading

import pytest

from repro.obs.trace import (
    TraceRecorder,
    get_tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.runtime import SimJob
from repro.workloads import GemmWorkload


@pytest.fixture
def tracer():
    recorder = install_tracer()
    try:
        yield recorder
    finally:
        uninstall_tracer()


class TestTraceRecorder:
    def test_disabled_by_default(self):
        assert get_tracer() is None

    def test_install_and_uninstall(self):
        recorder = install_tracer()
        assert get_tracer() is recorder
        assert uninstall_tracer() is recorder
        assert get_tracer() is None

    def test_begin_end_produces_completed_span(self):
        recorder = TraceRecorder()
        recorder.begin("job", "abc")
        recorder.end("job", "abc")
        assert recorder.spans("abc") == ["job"]

    def test_duplicate_begin_dropped(self):
        recorder = TraceRecorder()
        recorder.begin("job", "abc")
        recorder.begin("job", "abc")  # coalesced duplicate
        recorder.end("job", "abc")
        phases = [e.ph for e in recorder.events()]
        assert phases == ["b", "e"]

    def test_end_without_begin_becomes_instant(self):
        recorder = TraceRecorder()
        recorder.end("job", "abc")
        (event,) = recorder.events()
        assert event.ph == "n"

    def test_maybe_end_is_silent_without_begin(self):
        recorder = TraceRecorder()
        recorder.maybe_end("queued", "abc")
        assert recorder.events() == []

    def test_timestamps_monotone_microseconds(self):
        recorder = TraceRecorder()
        recorder.begin("job", "abc")
        recorder.instant("progress", "abc")
        recorder.end("job", "abc")
        stamps = [e.ts_us for e in recorder.events()]
        assert stamps == sorted(stamps)
        assert all(stamp >= 0 for stamp in stamps)

    def test_counter_event_shape(self):
        recorder = TraceRecorder()
        recorder.counter("queue_depth", {"jobs": 3})
        chrome = recorder.chrome_events()[0]
        assert chrome["ph"] == "C"
        assert chrome["args"] == {"jobs": 3}

    def test_chrome_events_carry_matching_ids(self):
        recorder = TraceRecorder()
        track = "deadbeefdeadbeefcafe"
        recorder.begin("job", track)
        recorder.end("job", track)
        begin, end = recorder.chrome_events()
        assert begin["id"] == end["id"] == track[:16]
        assert begin["ph"] == "b" and end["ph"] == "e"

    def test_export_writes_valid_chrome_trace(self, tmp_path):
        recorder = TraceRecorder()
        recorder.begin("job", "abc", workload="g")
        recorder.end("job", "abc", outcome="finished")
        out = tmp_path / "trace.json"
        count = recorder.export(out)
        assert count == 2
        document = json.loads(out.read_text())
        assert {e["name"] for e in document["traceEvents"]} == {"job"}
        assert all("ts" in e and "ph" in e for e in document["traceEvents"])

    def test_thread_safety_under_concurrent_appends(self):
        recorder = TraceRecorder()

        def spin(worker):
            for index in range(200):
                track = f"{worker}-{index}"
                recorder.begin("job", track)
                recorder.end("job", track)

        threads = [threading.Thread(target=spin, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder.events()) == 4 * 200 * 2


class TestServiceTracing:
    def _job(self, backend, name="trace_gemm"):
        return SimJob(
            workload=GemmWorkload(name=name, m=8, n=8, k=8), backend=backend.name
        )

    def test_traced_coalesced_job_reconstructs_lifecycle(
        self, tracer, stub_backend, tmp_path
    ):
        from repro.serve import ServiceClient, ServiceConfig

        gate = threading.Event()
        backend = stub_backend(gate=gate)
        client = ServiceClient(
            cache_dir=None, config=ServiceConfig(max_workers=1)
        )
        try:
            job = self._job(backend)
            first = client.submit(job, client_name="alice")
            second = client.submit(job, client_name="bob")  # coalesces
            gate.set()
            assert first.result(timeout=10) is not None
            assert second.result(timeout=10) is not None
        finally:
            client.close(drain=True)
        track = job.job_hash()
        # The full submit → settle timeline of the executed job.
        assert tracer.spans(track) == ["job", "queued", "executing"]
        instants = [
            e.name for e in tracer.events() if e.track == track and e.ph == "n"
        ]
        assert "coalesced" in instants
        ends = [e for e in tracer.events() if e.track == track and e.ph == "e"]
        job_end = next(e for e in ends if e.name == "job")
        assert job_end.args["outcome"] == "finished"
        assert job_end.args["waiters"] == 2  # both clients settled by one run

        out = tmp_path / "trace.json"
        count = tracer.export(out)
        document = json.loads(out.read_text())
        assert len(document["traceEvents"]) == count
        ids = {e["id"] for e in document["traceEvents"] if e.get("cat") == "job"}
        assert track[:16] in ids

    def test_simulator_over_a_service_leaves_balanced_job_spans(
        self, tracer, stub_backend, tmp_path
    ):
        """Two cores see each job (the simulator's, the service's) and only
        the service's traces it: every track has one closed ``job`` span per
        run and no stray ``job`` instant — cold (executed) and warm (a
        service cache hit) alike, an in-batch duplicate included."""
        from repro.runtime import Simulator
        from repro.serve import ServiceClient

        backend = stub_backend()
        jobs = [self._job(backend, name=f"stacked_{i}") for i in range(2)]
        with ServiceClient(cache_dir=tmp_path) as client:
            simulator = Simulator(service=client)
            simulator.simulate_many(jobs + jobs[:1])
            simulator.simulate_many(jobs)
        assert (simulator.stats.executed, simulator.stats.cache_hits) == (2, 2)
        for job in jobs:
            edges = [
                e.ph for e in tracer.events() if e.track == job.job_hash() and e.name == "job"
            ]
            assert edges == ["b", "e", "b", "e"]  # the cold run, the warm run
        assert "executing" in tracer.spans(jobs[0].job_hash())

    def test_queue_depth_counter_events_recorded(self, tracer, stub_backend):
        from repro.serve import ServiceClient, ServiceConfig

        gate = threading.Event()
        backend = stub_backend(gate=gate)
        client = ServiceClient(cache_dir=None, config=ServiceConfig(max_workers=1))
        try:
            tickets = [
                client.submit(self._job(backend, name=f"depth_gemm_{i}"))
                for i in range(3)
            ]
            gate.set()
            for ticket in tickets:
                ticket.result(timeout=10)
        finally:
            client.close(drain=True)
        counters = [e for e in tracer.events() if e.ph == "C"]
        assert counters, "queue depth counters should be traced"
        assert all(e.name == "queue_depth" for e in counters)
        assert any(e.args["jobs"] >= 1 for e in counters)

    def test_untraced_run_records_nothing(self, stub_backend):
        from repro.serve import ServiceClient

        assert get_tracer() is None
        backend = stub_backend()
        client = ServiceClient(cache_dir=None)
        try:
            client.submit(self._job(backend)).result(timeout=10)
        finally:
            client.close(drain=True)
        assert get_tracer() is None


class TestDisabledHookCount:
    """With no tracer installed, a telemetry hook is one ``get_tracer()``
    call that returns ``None``.  Its cost is held as a count, not in
    seconds: at most ``HOOKS_PER_SUBMISSION`` calls per submission."""

    #: Event-bus publishes, queue-depth notifications, engine begin/end and
    #: the write-back probe, generously (measured: 2.6 per submission).
    HOOKS_PER_SUBMISSION = 16
    #: The duplicate-heavy mix: (GeMM m, n, k, submissions of that kernel).
    MIX = (
        (16, 16, 16, 20),
        (16, 16, 32, 10),
        (24, 24, 16, 10),
        (32, 32, 16, 5),
        (8, 8, 64, 5),
    )

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """The mix through a 2-worker client with every call counted."""
        from repro.serve import ServiceClient, ServiceConfig

        jobs = [
            SimJob(workload=GemmWorkload(name=f"hooks_{m}x{n}x{k}", m=m, n=n, k=k))
            for m, n, k, copies in self.MIX
            for _ in range(copies)
        ]
        assert get_tracer() is None
        target = get_tracer.__code__
        calls = []  # list.append is atomic across the worker threads

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is target:
                calls.append(1)

        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with ServiceClient(
                cache_dir=tmp_path_factory.mktemp("hooks"),
                config=ServiceConfig(max_workers=2, max_backlog=len(jobs)),
            ) as client:
                tickets = [
                    client.submit(job, client_name=f"hooks{index % 4}")
                    for index, job in enumerate(jobs)
                ]
                for ticket in tickets:
                    ticket.result(timeout=120)
                stats = client.stats()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        unique = len({job.job_hash() for job in jobs})
        return {"submitted": len(jobs), "unique": unique, "calls": len(calls), **stats}

    def test_get_tracer_calls_per_submission(self, run):
        calls = run["calls"]
        assert 0 < calls <= self.HOOKS_PER_SUBMISSION * run["submitted"], calls

    def test_duplicates_never_resimulate(self, run):
        assert run["executed"] == run["unique"]

    def test_stream_was_duplicate_heavy(self, run):
        """Every duplicate was coalesced or served from the cache."""
        duplicates = run["submitted"] - run["unique"]
        assert run["coalesced"] + run["cache_hits"] == duplicates
        assert run["coalescing_hit_rate"] + run["cache_hit_rate"] == pytest.approx(
            duplicates / run["submitted"]
        )
