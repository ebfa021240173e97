"""The shape of the hit path, in counts (never timings).

A job's identity is encoded once per ``SimJob`` instance however many
layers ask for it, a design once per *value*, and a ``ServiceClient.submit``
is one loop callback — no coroutine, no Task, and a hit is done on return.
Also the regression for ``submit`` racing ``close``.
"""

import asyncio
import sys
import threading

import pytest

from repro.runtime import BatchRunner, ResultCache, SimJob, Simulator
from repro.runtime import job as job_module
from repro.serve import ServiceClient, ServiceClosedError
from repro.workloads import ConvWorkload, GemmWorkload


@pytest.fixture
def job_encodes(monkeypatch):
    """Counts full encodes of a job: ``job_hash`` encodes the workload with
    every fresh digest and never otherwise."""
    encoded = []
    encode = job_module._encoded_json

    def counting(obj):
        if isinstance(obj, (GemmWorkload, ConvWorkload)):
            encoded.append(obj.name)
        return encode(obj)

    monkeypatch.setattr(job_module, "_encoded_json", counting)
    return encoded


def instances(backend, count, m=8):
    """``count`` distinct jobs, one fresh ``SimJob`` instance each."""
    return [
        SimJob(workload=GemmWorkload(name=f"hit_{i}", m=m, n=8, k=8), backend=backend)
        for i in range(count)
    ]


class TestHashOncePerInstance:
    def test_simulator_cold_then_warm(self, tmp_path, job_encodes):
        job = SimJob(workload=GemmWorkload(name="once", m=8, n=8, k=8))
        simulator = Simulator(cache_dir=tmp_path)
        cold = simulator.simulate(job)
        warm = simulator.simulate(job)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.job_hash == warm.job_hash == job.job_hash()
        assert job_encodes == ["once"]

    def test_batch_of_duplicates(self, tmp_path, stub_backend, job_encodes):
        backend = stub_backend()
        jobs = instances(backend.name, 5)
        runner = BatchRunner(cache=ResultCache(tmp_path))
        outcomes = runner.run(jobs * 10)
        assert len(outcomes) == 50 and backend.calls == 5
        assert sorted(job_encodes) == sorted(job.workload.name for job in jobs)

    def test_warm_submissions(self, tmp_path, stub_backend, job_encodes):
        backend = stub_backend()
        jobs = instances(backend.name, 10)
        with ServiceClient(cache_dir=tmp_path) as client:
            client.run(jobs)
            for index in range(200):
                ticket = client.submit(jobs[index % 10])
                assert ticket.cache_hit and ticket.result(timeout=30).cache_hit
            assert client.stats()["executed"] == 10
        assert backend.calls == 10
        assert sorted(job_encodes) == sorted(job.workload.name for job in jobs)

    def test_fresh_jobs_share_one_encoded_design(self, job_encodes):
        job_module._part_json.cache_clear()
        for job in instances("datamaestro", 100):
            job.job_hash()
        assert len(job_encodes) == 100
        info = job_module._part_json.cache_info()
        # One design and one feature set, by value: 2 encodes, 198 lookups.
        assert (info.misses, info.hits) == (2, 198)


class LoopSpy:
    """Counts what one client call asks of the event loop."""

    def __init__(self, client, monkeypatch):
        self.callbacks = 0
        self.tasks = 0
        self.coroutine_hops = 0
        loop = client._loop
        schedule = loop.call_soon_threadsafe

        def call_soon_threadsafe(callback, *args, **kwargs):
            self.callbacks += 1
            return schedule(callback, *args, **kwargs)

        def task_factory(loop, coroutine, **kwargs):
            self.tasks += 1
            return asyncio.Task(coroutine, loop=loop, **kwargs)

        def run_coroutine_threadsafe(*_args, **_kwargs):
            self.coroutine_hops += 1
            raise AssertionError("submit must not hop with a coroutine")

        monkeypatch.setattr(loop, "call_soon_threadsafe", call_soon_threadsafe)
        monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", run_coroutine_threadsafe)
        loop.set_task_factory(task_factory)


class TestHopOnce:
    def test_a_warm_submit_is_one_callback_and_done_on_return(
        self, tmp_path, stub_backend, monkeypatch
    ):
        backend = stub_backend()
        (job,) = instances(backend.name, 1)
        client = ServiceClient(cache_dir=tmp_path)
        try:
            client.run([job])
            with monkeypatch.context() as patch:
                spy = LoopSpy(client, patch)
                tickets = [client.submit(job) for _ in range(20)]
                assert all(ticket.cache_hit and ticket.done() for ticket in tickets)
                assert (spy.callbacks, spy.tasks, spy.coroutine_hops) == (20, 0, 0)
                client._loop.set_task_factory(None)
            assert tickets[0].result(timeout=30).job_hash == job.job_hash()
        finally:
            client.close()

    def test_a_miss_is_one_callback_from_the_caller_and_no_task(
        self, stub_backend, monkeypatch
    ):
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        (job,) = instances(backend.name, 1)
        client = ServiceClient()
        try:
            with monkeypatch.context() as patch:
                spy = LoopSpy(client, patch)
                first = client.submit(job)
                second = client.submit(job)
                # Only the two submits crossed from this thread; a worker
                # that was already parked picked the entry up.
                assert (spy.callbacks, spy.tasks, spy.coroutine_hops) == (2, 0, 0)
                assert second.coalesced and not first.done()
                gate.set()
                assert first.result(timeout=30) is second.result(timeout=30)
                client._loop.set_task_factory(None)
        finally:
            gate.set()
            client.close()

    def test_job_errors_cross_the_bridge(self, stub_backend):
        backend = stub_backend(error=ValueError("boom"))
        (job,) = instances(backend.name, 1)
        with ServiceClient() as client:
            ticket = client.submit(job)
            with pytest.raises(ValueError, match="boom"):
                ticket.result(timeout=30)
            assert isinstance(ticket.future.exception(), ValueError)


class TestSubmitRacingClose:
    def test_every_call_returns_a_ticket_or_the_typed_error(self, tmp_path, stub_backend):
        """Three threads submit in a loop while the main thread closes: they
        see tickets, then ``ServiceClosedError`` — never asyncio's 'event
        loop is closed', never a call or a ticket that hangs."""
        backend = stub_backend()
        jobs = instances(backend.name, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_index in range(15):
                client = ServiceClient(cache_dir=tmp_path / f"round-{round_index}")
                client.run(jobs)
                self.race(client, jobs)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def race(client, jobs, submitters=3):
        started = threading.Barrier(submitters + 1)
        tickets, unexpected = [], []

        def submitter():
            try:
                tickets.append(client.submit(jobs[0]))
                started.wait(timeout=30)
                for index in range(100_000):
                    tickets.append(client.submit(jobs[index % 4]))
            except ServiceClosedError:
                pass
            except BaseException as error:  # noqa: BLE001 — the regression
                unexpected.append(error)

        threads = [threading.Thread(target=submitter, daemon=True) for _ in range(submitters)]
        for thread in threads:
            thread.start()
        started.wait(timeout=30)
        client.close()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "submit hung across close()"
        assert unexpected == []
        for ticket in tickets[-50:]:
            assert ticket.result(timeout=30).cache_hit
        with pytest.raises(ServiceClosedError):
            client.submit(jobs[0])
        with pytest.raises(ServiceClosedError):
            client.run(jobs)
        # Every ticket handed out was admitted and counted, none twice.
        assert client.stats()["submitted"] == len(tickets) + len(jobs)
