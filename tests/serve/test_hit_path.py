"""The shape of the hit path, in counts (never timings).

A job's identity is encoded once per ``SimJob`` instance however many
layers ask for it, a design once per *value*, and a ``ServiceClient.submit``
admits on the caller's thread — the client adds no thread to the service's
workers, and a hit is done on return.  Also the regression for ``submit``
racing ``close``.
"""

import sys
import threading

import pytest

from repro.runtime import SimJob, Simulator
from repro.runtime import job as job_module
from repro.serve import ServiceClient, ServiceClosedError, ServiceConfig
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
        simulator = Simulator(cache_dir=tmp_path)
        outcomes = simulator.simulate_many(jobs * 10)
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


def added_threads(before):
    return sorted(t.name for t in set(threading.enumerate()) - before)


class TestThreadCensus:
    """The client owns no thread: the service's workers are all there is."""

    def test_a_started_client_adds_exactly_its_workers(self, stub_backend):
        workers = 3
        gate = threading.Event()
        backend = stub_backend(gate=gate)
        (job,) = instances(backend.name, 1)
        before = set(threading.enumerate())
        client = ServiceClient(config=ServiceConfig(max_workers=workers))
        try:
            names = [f"repro-serve-{index}" for index in range(workers)]
            assert added_threads(before) == names
            first = client.submit(job)
            second = client.submit(job)
            # A miss is executed by a worker that was already parked; the
            # submits themselves started nothing.
            assert second.coalesced and not first.done()
            assert added_threads(before) == names
            gate.set()
            assert first.result(timeout=30) is second.result(timeout=30)
        finally:
            gate.set()
            client.close()
        assert added_threads(before) == []

    def test_a_warm_submit_is_done_on_return(self, tmp_path, stub_backend):
        backend = stub_backend()
        (job,) = instances(backend.name, 1)
        with ServiceClient(cache_dir=tmp_path) as client:
            client.run([job])
            # Admission ran on this thread: no hand-off to wait for.
            tickets = [client.submit(job) for _ in range(20)]
            assert all(ticket.cache_hit and ticket.done() for ticket in tickets)
            assert tickets[0].result(timeout=30).job_hash == job.job_hash()
        assert backend.calls == 1


class TestHopOnce:
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
        see tickets, then ``ServiceClosedError`` — nothing else, never a
        call or a ticket that hangs."""
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
