"""The admission core, driven synchronously — and one contract for both
transports.

``AdmissionCore`` needs neither an event loop nor a lock, so the first half
of this module drives it with ``concurrent.futures.Future`` and an
in-memory cache: stage order, exactly-once resolution, the bounce
accounting, and a seeded random op sequence checked against a small
reference model plus the accounting identity (the seed of the stateful
oracle ROADMAP item 4(a) asks for); also that ``announce`` is the one emit
point — no event object without a listener, and the listener hears what the
tracer hears, in the same order.  The second half runs one op script
through ``ServiceClient`` and ``ClusterService(shards=1)`` and asserts
equal ticket flags and the same identity on both, then drives both from
eight submitter threads at once, with the identity holding on every
mid-flight ``snapshot()`` of either.
"""

import itertools
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer
from repro.runtime import SimJob, SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend
from repro.runtime import admission as core_module
from repro.runtime.admission import AdmissionCore, Stats
from repro.serve import (
    QueueFullError,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    ServiceEvent,
)
from repro.workloads import GemmWorkload

_COUNTER = itertools.count()

IDENTITY_TERMS = (
    "coalesced",
    "cache_hits",
    "journal_hits",
    "executed",
    "failed",
    "rejected",
    "cancelled",
)


def identity_holds(stats: dict, inflight: int) -> bool:
    """submitted = every way a submission can end + what is still in flight."""
    return stats["submitted"] == inflight + sum(stats.get(t, 0) for t in IDENTITY_TERMS)


def _job(tag, backend="datamaestro"):
    return SimJob(
        workload=GemmWorkload(name=f"core_{tag}", m=8, n=8, k=8),
        backend=backend,
        seed=tag,
    )


def _outcome(job):
    ideal = job.workload.ideal_compute_cycles(
        job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
    )
    return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


class MemoryCache:
    """The two ``ResultCache`` calls the core and an executor make."""

    def __init__(self):
        self.entries = {}
        self.lookups = 0

    def get(self, key):
        self.lookups += 1
        return self.entries.get(key)

    def put(self, key, outcome):
        self.entries[key] = outcome


class Refused(Exception):
    """An executor declining a new entry (queue full, dead shard)."""


class Harness:
    """A core wired to thread futures, a memory cache and an event log."""

    def __init__(self, transport="cluster"):
        self.cache = MemoryCache()
        self.events = []
        self.placed = []
        self.refuse = False
        # "cluster" carries every counter the identity names but
        # ``rejected``; the bounce tests use a "thread" core.
        self.core = AdmissionCore(Stats(transport), self.cache, self._on_event)

    def _on_event(self, event):
        assert event.workload.startswith("core_")
        assert event.seq == len(self.events)
        extra = {
            name: getattr(event, name)
            for name in ("cycles", "waiters", "error")
            if getattr(event, name) is not None
        }
        self.events.append((event.kind, event.job_hash, event.client, extra))

    def _place(self, entry):
        if self.refuse:
            raise Refused(entry.key)
        self.placed.append(entry)

    def admit(self, job, client="anon", count_refusal=False):
        return self.core.admit(job, client, self._place, count_refusal=count_refusal)

    def kinds(self):
        return [kind for kind, *_ in self.events]


# ----------------------------------------------------------------------
# Stage by stage.
# ----------------------------------------------------------------------
class TestAdmission:
    def test_new_entry_is_placed_registered_and_announced(self):
        h = Harness()
        job = _job(1)
        ticket = h.admit(job, "alice")
        assert (ticket.coalesced, ticket.cache_hit, ticket.done()) == (False, False, False)
        assert ticket.job_hash == job.job_hash() and ticket.client == "alice"
        assert [e.key for e in h.placed] == [job.job_hash()]
        assert h.core.inflight[job.job_hash()].future is ticket.future
        assert h.kinds() == ["submitted"]
        assert h.core.stats.submitted == 1

    def test_probe_order_is_journal_then_cache(self):
        h = Harness()
        job = _job(2)
        journaled, cached = _outcome(job), _outcome(job)
        h.core.replayed[job.job_hash()] = journaled
        h.cache.put(job.job_hash(), cached)
        ticket = h.admit(job)
        assert ticket.cache_hit
        assert ticket.result(0) is journaled
        # Admission flags nothing: the replay map holds flagged copies.
        assert journaled.cache_hit is False
        assert h.cache.lookups == 0  # the journal answered first
        assert (h.core.stats.journal_hits, h.core.stats.cache_hits) == (1, 0)
        assert h.kinds() == ["submitted", "journal_hit", "finished"]
        assert not h.placed and not h.core.inflight

    def test_cache_hit_resolves_without_an_executor(self):
        h = Harness()
        job = _job(3)
        h.cache.put(job.job_hash(), _outcome(job))
        ticket = h.admit(job)
        assert ticket.cache_hit and ticket.result(0) is h.cache.entries[job.job_hash()]
        assert h.kinds() == ["submitted", "cache_hit", "finished"]
        assert h.events[-1][3] == {"waiters": 1}
        assert h.core.stats.cache_hits == 1 and not h.placed

    def test_inflight_duplicate_coalesces_before_any_probe(self):
        h = Harness()
        job = _job(4)
        first = h.admit(job, "alice")
        lookups = h.cache.lookups
        second = h.admit(job, "bob")
        assert second.coalesced and second.future is first.future
        assert h.cache.lookups == lookups and len(h.placed) == 1
        # The coalesced submission is announced under its own client name.
        assert h.events[-2:] == [
            ("submitted", job.job_hash(), "bob", {}),
            ("coalesced", job.job_hash(), "bob", {}),
        ]
        assert h.core.inflight[job.job_hash()].waiters == 2


class TestSettlement:
    def test_every_coalesced_waiter_gets_the_identical_outcome_exactly_once(self):
        h = Harness()
        job = _job(5)
        tickets = [h.admit(job, f"c{i}") for i in range(4)]
        fired = []
        for ticket in tickets:
            ticket.add_done_callback(fired.append)
        outcome = _outcome(job)
        entry = h.core.settle(job.job_hash(), outcome)
        assert not fired  # retired, not yet released: resolve() is the shell's call
        entry.resolve()
        entry.resolve()  # idempotent
        assert [t.result(0) for t in tickets] == [outcome] * 4
        assert all(t.result(0) is outcome for t in tickets)
        assert fired == tickets  # one callback per waiter, once
        assert h.events[-1] == ("finished", job.job_hash(), "c0", {"waiters": 4})
        assert h.core.stats.executed == 1 and not h.core.inflight
        # A duplicate result frame for the same key changes nothing.
        assert h.core.settle(job.job_hash(), _outcome(job)) is None
        assert h.core.stats.executed == 1 and len(fired) == 4

    def test_unknown_key_settle_is_ignored(self):
        h = Harness()
        assert h.core.settle("no-such-key", _outcome(_job(6))) is None
        assert h.core.settle("no-such-key", error=RuntimeError("x")) is None
        assert h.core.stats.as_dict()["executed"] == 0 and not h.events

    def test_error_reaches_every_waiter_as_the_same_object(self):
        h = Harness()
        job = _job(7)
        tickets = [h.admit(job) for _ in range(3)]
        boom = RuntimeError("backend exploded")
        h.core.settle(job.job_hash(), error=boom).resolve()
        for ticket in tickets:
            with pytest.raises(RuntimeError) as excinfo:
                ticket.result(0)
            assert excinfo.value is boom
        kind, _key, _client, extra = h.events[-1]
        assert kind == "failed" and extra["waiters"] == 3
        assert extra["error"] == "RuntimeError: backend exploded"
        assert (h.core.stats.failed, h.core.stats.executed) == (1, 0)

    def test_abandon_counts_cancelled_and_fails_waiters(self):
        h = Harness()
        jobs = [_job(10 + i) for i in range(3)]
        tickets = [h.admit(job) for job in jobs]
        h.admit(jobs[0])  # a coalesced waiter is abandoned with its entry
        settled = h.core.settle(jobs[2].job_hash(), _outcome(jobs[2]))
        settled.resolve()
        # An entry no longer in flight is skipped, not double-retired.
        abandoned = h.core.abandon(list(h.placed), "service closed")
        assert [e.key for e in abandoned] == [j.job_hash() for j in jobs[:2]]
        for entry in abandoned:
            entry.resolve()
        for ticket in tickets[:2]:
            with pytest.raises(ServiceClosedError, match="service closed before job"):
                ticket.result(0)
        assert tickets[2].result(0) is settled.outcome
        assert h.core.stats.cancelled == 2 and not h.core.inflight
        assert h.kinds().count("cancelled") == 2
        assert identity_holds(h.core.stats.as_dict(), 0)

    def test_abandoning_a_settled_entry_spares_the_newer_one_under_its_key(self):
        """A batch retiring what it left unsettled must not reach an entry
        another caller admitted under the same key after it settled."""
        h = Harness()
        job = _job(13)
        h.admit(job)
        old = h.core.settle(job.job_hash(), _outcome(job))
        old.resolve()
        newer = h.admit(job)
        assert not newer.coalesced and not newer.cache_hit
        assert h.core.abandon([old], "batch aborted") == []
        assert h.core.stats.cancelled == 0 and job.job_hash() in h.core.inflight
        outcome = _outcome(job)
        h.core.settle(job.job_hash(), outcome).resolve()
        assert newer.result(0) is outcome
        assert identity_holds(h.core.stats.as_dict(), 0)


class TestBounceAccounting:
    def test_fail_fast_bounce_counts_submitted_and_rejected(self):
        h = Harness("thread")
        h.refuse = True
        with pytest.raises(Refused):
            h.admit(_job(20), count_refusal=True)
        stats = h.core.stats
        assert (stats.submitted, stats.rejected) == (1, 1)
        assert h.kinds() == ["submitted", "rejected"]
        assert not h.core.inflight and identity_holds(stats.as_dict(), 0)

    def test_waiting_retry_counts_nothing_twice(self):
        """The ``submit_wait`` shape: refused attempts are silent, the one
        that lands is the only submission."""
        h = Harness("thread")
        job = _job(21)
        h.refuse = True
        for _ in range(3):
            with pytest.raises(Refused):
                h.admit(job)
        assert h.core.stats.submitted == 0 and not h.events
        h.refuse = False
        ticket = h.admit(job)
        assert not ticket.coalesced
        assert (h.core.stats.submitted, h.core.stats.rejected) == (1, 0)
        assert h.kinds() == ["submitted"]

    def test_refused_entry_leaves_no_trace_in_the_coalescing_map(self):
        h = Harness("thread")
        job = _job(22)
        h.refuse = True
        with pytest.raises(Refused):
            h.admit(job, count_refusal=True)
        h.refuse = False
        assert not h.admit(job).coalesced  # nothing to ride on


# ----------------------------------------------------------------------
# One emit point: ``AdmissionCore.announce``.
# ----------------------------------------------------------------------
@pytest.fixture
def built_events(monkeypatch):
    """Every ``ServiceEvent`` the core constructs, in construction order."""
    built = []

    def counting(*args, **kwargs):
        built.append(ServiceEvent(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(core_module, "ServiceEvent", counting)
    return built


class LifecycleRecorder(TraceRecorder):
    """A tracer that also keeps the ``lifecycle`` calls it was handed."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def lifecycle(self, kind, key, client, **extra):
        self.calls.append((kind, key))
        super().lifecycle(kind, key, client, **extra)


class TestOneEmitPoint:
    def test_without_on_event_no_event_object_is_built(
        self, tmp_path, stub_backend, make_job, built_events
    ):
        backend = stub_backend()
        job = make_job(backend.name)
        with ServiceClient(cache_dir=tmp_path) as client:
            assert not client.submit(job).result(30).cache_hit  # executed
            assert client.submit(job).result(30).cache_hit
        assert built_events == []
        # With a listener, a hit is exactly its three edges.
        with ServiceClient(cache_dir=tmp_path, on_event=lambda event: None) as client:
            assert client.submit(job).cache_hit
        assert [e.kind for e in built_events] == ["submitted", "cache_hit", "finished"]

    def test_on_event_hears_what_the_tracer_hears_in_the_same_order(
        self, tmp_path, stub_backend, make_job
    ):
        gate = threading.Event()
        backend, failing = stub_backend(gate=gate), stub_backend(error=ValueError("x"))
        cached, held, other = (make_job(backend.name, tag=tag) for tag in range(3))
        doomed = make_job(failing.name, tag=3)
        events = []
        recorder = install_tracer(LifecycleRecorder())
        try:
            with ServiceClient(
                cache_dir=tmp_path, config=ServiceConfig(max_workers=1), on_event=events.append
            ) as client:
                gate.set()
                client.run([cached])
                gate.clear()
                tickets = [client.submit(job) for job in (held, held, other, cached, doomed)]
                gate.set()
                for ticket in tickets[:-1]:
                    ticket.result(30)
                with pytest.raises(ValueError):
                    tickets[-1].result(30)
        finally:
            uninstall_tracer()
        heard = [(event.kind, event.job_hash) for event in events]
        assert heard == recorder.calls
        for job in (cached, held, other, doomed):
            key = job.job_hash()
            kinds = [kind for kind, job_hash in heard if job_hash == key]
            assert kinds == [kind for kind, call_key in recorder.calls if call_key == key]
        assert {"coalesced", "cache_hit", "failed"} <= {kind for kind, _ in heard}
        assert [event.seq for event in events] == list(range(len(events)))


class TestDescribe:
    """``ServiceEvent.describe`` is the line ``repro serve --events`` prints:
    each optional field appears exactly when it is set."""

    KEY = "0123456789abcdef" * 4

    def test_progress_line_carries_cycles(self):
        event = ServiceEvent("progress", self.KEY, "alice", 7, "gemm_a", cycles=250_000)
        assert event.describe() == "[0007] progress  gemm_a client=alice cycles=250000"

    def test_finished_line_carries_waiters(self):
        event = ServiceEvent("finished", self.KEY, "bob", 12, "gemm_b", waiters=3)
        assert event.describe() == "[0012] finished  gemm_b client=bob waiters=3"

    def test_failed_line_carries_the_error(self):
        event = ServiceEvent(
            "failed", self.KEY, "carol", 3, "gemm_c", waiters=1, error="RuntimeError: boom"
        )
        assert event.describe() == (
            "[0003] failed    gemm_c client=carol waiters=1 error=RuntimeError: boom"
        )

    def test_an_empty_client_and_workload_leave_the_hash(self):
        event = ServiceEvent("submitted", self.KEY, "", 0)
        assert event.describe() == "[0000] submitted 0123456789ab"


# ----------------------------------------------------------------------
# Seeded random op sequences against a reference model.
# ----------------------------------------------------------------------
class Model:
    """What the counters and ticket flags must be, in ~30 lines."""

    def __init__(self):
        self.inflight, self.cached, self.replayed = {}, set(), set()
        self.counts = dict.fromkeys(("submitted",) + IDENTITY_TERMS, 0)

    def bump(self, *names):
        for name in names:
            self.counts[name] += 1

    def submit(self, key, refuse):
        """Returns the expected ``(coalesced, cache_hit)`` or ``None`` when refused."""
        if key in self.inflight:
            self.inflight[key] += 1
            self.bump("submitted", "coalesced")
            return True, False
        for source, counter in ((self.replayed, "journal_hits"), (self.cached, "cache_hits")):
            if key in source:
                self.bump("submitted", counter)
                return False, True
        if refuse:
            return None
        self.inflight[key] = 1
        self.bump("submitted")
        return False, False

    def settle(self, key, ok):
        """Returns how many waiters must be released."""
        waiters = self.inflight.pop(key, 0)
        if waiters:
            self.bump("executed" if ok else "failed")
            if ok:
                self.cached.add(key)
        return waiters

    def abandon(self, keys):
        for key in keys:
            if self.inflight.pop(key, 0):
                self.bump("cancelled")


@pytest.mark.parametrize("seed", range(8))
def test_random_op_sequence_matches_the_reference_model(seed):
    rng = random.Random(seed)
    jobs = [_job(100 + i) for i in range(6)]
    keys = [job.job_hash() for job in jobs]
    h, model = Harness(), Model()
    tickets = {key: [] for key in keys}
    for _step in range(400):
        op = rng.random()
        index = rng.randrange(len(jobs))
        job, key = jobs[index], keys[index]
        if op < 0.55:
            h.refuse = rng.random() < 0.2
            expected = model.submit(key, h.refuse)
            if expected is None:
                with pytest.raises(Refused):
                    h.admit(job)
            else:
                ticket = h.admit(job)
                assert (ticket.coalesced, ticket.cache_hit) == expected
                if not ticket.cache_hit:
                    tickets[key].append(ticket)
        elif op < 0.85:
            ok = rng.random() < 0.8
            outcome, error = (_outcome(job), None) if ok else (None, ValueError(key))
            entry = h.core.settle(key, outcome, error)
            waiters = model.settle(key, ok)
            assert (entry is not None) == bool(waiters)
            if entry is not None:
                if ok:
                    h.cache.put(key, outcome)  # what an executor's write-back does
                entry.resolve()
                released = tickets[key]
                tickets[key] = []
                assert len(released) == waiters == entry.waiters
                assert all(t.done() for t in released)
                if ok:
                    assert all(t.result(0) is outcome for t in released)
        elif op < 0.92:
            victims = [e for e in list(h.core.inflight.values()) if rng.random() < 0.5]
            model.abandon([e.key for e in victims])
            for entry in h.core.abandon(victims, "closing"):
                entry.resolve()
                tickets[entry.key] = []
        elif op < 0.96:
            # A journal replay lands for a key that is cached: probe order.
            if key in model.cached:
                model.replayed.add(key)
                h.core.replayed[key] = h.cache.entries[key]
        else:
            assert h.core.settle("stale-" + key, _outcome(job)) is None
        stats = h.core.stats.as_dict()
        assert {k: stats.get(k, 0) for k in model.counts} == model.counts
        assert set(h.core.inflight) == set(model.inflight)
        assert identity_holds(stats, len(h.core.inflight))


# ----------------------------------------------------------------------
# One contract, both transports.
# ----------------------------------------------------------------------
class FileGatedBackend(SimulationBackend):
    """Holds executions until a sentinel file appears (works across the
    fork boundary); ``fail_tag`` names the one job that raises."""

    def __init__(self, name, gate_path, fail_tag):
        self.name = name
        self.gate_path = str(gate_path)
        self.fail_tag = fail_tag

    def execute(self, job):
        deadline = time.monotonic() + 30.0
        while not Path(self.gate_path).exists():
            assert time.monotonic() < deadline, "test gate never released"
            time.sleep(0.01)
        if job.seed == self.fail_tag:
            raise ValueError("injected failure")
        return _outcome(job)


def _thread_service(cache_dir, seqs):
    return ServiceClient(
        cache_dir=cache_dir,
        config=ServiceConfig(max_workers=1),
        on_event=lambda event: seqs.append(event.seq),
    )


def _cluster_service(cache_dir, seqs):
    config = ClusterConfig(
        shards=1, heartbeat_interval=0.1, ready_timeout=15.0, shutdown_timeout=30.0
    )
    return ClusterService(
        cache_dir=cache_dir, config=config, on_event=lambda event: seqs.append(event.seq)
    )


@pytest.fixture(params=[_thread_service, _cluster_service], ids=["serve", "cluster"])
def front_door(request, tmp_path):
    """``(service, backend, seqs)``: ``seqs`` collects the service's event
    sequence numbers (its ``on_event``)."""
    # Registered before the service starts so a forked shard inherits it.
    backend = FileGatedBackend(
        f"contract-{next(_COUNTER)}", tmp_path / "gate", fail_tag=3
    )
    register_backend(backend)
    seqs = []
    service = request.param(tmp_path / "cache", seqs)
    try:
        yield service, backend, seqs
    finally:
        Path(backend.gate_path).touch()
        service.close()


class TestTransportContract:
    """The same op script, the same ticket flags, the same identity."""

    def test_op_script(self, front_door):
        service, backend, seqs = front_door
        a, b, failing = (_job(tag, backend.name) for tag in (1, 2, 3))
        script = [a, a, b, failing, a]  # new, coalesced, new, new, coalesced
        tickets = [service.submit(job, client_name="contract") for job in script]
        Path(backend.gate_path).touch()
        assert tickets[0].result(30) is tickets[1].result(30) is tickets[4].result(30)
        assert tickets[2].result(30).job_hash == b.job_hash()
        with pytest.raises(ValueError, match="injected failure"):
            tickets[3].result(30)
        again = service.submit(a, client_name="contract")  # now durable in the cache
        assert again.result(30).job_hash == a.job_hash()
        tickets.append(again)

        assert [(t.coalesced, t.cache_hit) for t in tickets] == [
            (False, False),
            (True, False),
            (False, False),
            (False, False),
            (True, False),
            (False, True),
        ]
        assert all(t.done() and t.client == "contract" for t in tickets)
        stats = service.stats_dict()
        expected = {"submitted": 6, "coalesced": 2, "cache_hits": 1, "executed": 2, "failed": 1}
        assert {name: stats[name] for name in expected} == expected
        assert stats["cancelled"] == 0
        assert identity_holds(stats, 0)
        service.close()
        assert identity_holds(service.stats_dict(), 0)
        with pytest.raises(ServiceClosedError):
            service.submit(b, client_name="contract")

    def test_waiters_failed_at_shutdown_are_counted(self, front_door):
        """Close without draining while the gate is shut: whatever never
        settled is ``cancelled`` — on the cluster too, which used to fail
        those waiters and count them nowhere."""
        service, backend, seqs = front_door
        jobs = [_job(tag, backend.name) for tag in (10, 11, 12)]
        tickets = [service.submit(job, client_name="contract") for job in jobs]
        tickets.append(service.submit(jobs[2], client_name="contract"))  # coalesced
        if isinstance(service, ClusterService):
            service.terminate()
            unsettled = 3
        else:
            # In-process, the job a worker already holds runs to completion;
            # the two still queued are abandoned.
            deadline = time.monotonic() + 10.0
            while service.snapshot()["queue_depth"] != 2:
                assert time.monotonic() < deadline, "worker never took the first job"
                time.sleep(0.01)
            # The gate opens only after close() has abandoned the queue
            # (close then waits for the executing job).
            opener = threading.Timer(0.3, Path(backend.gate_path).touch)
            opener.start()
            service.close(drain=False)
            opener.join()
            unsettled = 2
        failed = 0
        for ticket in tickets:
            try:
                ticket.result(30)
            except ServiceClosedError:
                failed += 1
        stats = service.stats_dict()
        assert stats["cancelled"] == unsettled
        assert failed == unsettled + 1  # the coalesced waiter shares its entry's fate
        assert identity_holds(stats, 0)

    def test_concurrent_submitters_lose_and_duplicate_nothing(self, front_door):
        """8 threads x 200 submissions over 20 jobs, mixed ``submit`` /
        ``run``, a ``snapshot()`` reader throughout, then ``submit`` racing
        ``close``: one simulation per distinct job, every ticket resolves,
        the identity holds, and the race ends in a ticket or the typed error."""
        service, backend, seqs = front_door
        Path(backend.gate_path).touch()
        jobs = [_job(100 + tag, backend.name) for tag in range(20)]
        snapshots, unexpected, tickets, racing = [], [], [], []
        stop = threading.Event()

        def guarded(body, *args):
            def target():
                try:
                    body(*args)
                except BaseException as error:  # noqa: BLE001 — the assertion below
                    unexpected.append(error)

            return threading.Thread(target=target, daemon=True)

        def submitter(index):
            rng, submitted = random.Random(index), 0
            while submitted < 200:
                if submitted % 10 == 0:
                    batch = rng.sample(jobs, 5)
                    outcomes = service.run(batch, client_name=f"t{index}")
                    assert [o.job_hash for o in outcomes] == [j.job_hash() for j in batch]
                    submitted += 5
                else:
                    job = rng.choice(jobs)
                    tickets.append((job, service.submit(job, client_name=f"t{index}")))
                    submitted += 1

        def reader():
            while not stop.is_set():
                snapshots.append(service.snapshot())

        def racer():
            try:
                while True:
                    racing.append(service.submit(jobs[0], client_name="racer"))
            except ServiceClosedError:
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            watcher = guarded(reader)
            watcher.start()
            threads = [guarded(submitter, index) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a submitter hung"
            for job, ticket in tickets:
                assert ticket.result(30).job_hash == job.job_hash()
            racers = [guarded(racer) for _ in range(3)]
            for thread in racers:
                thread.start()
            while len(racing) < 10:
                time.sleep(0.001)
            stop.set()
            service.close()
            for thread in racers + [watcher]:
                thread.join(timeout=30)
                assert not thread.is_alive(), "submit or snapshot hung across close()"
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert unexpected == []
        for ticket in racing:
            assert ticket.result(30).job_hash == jobs[0].job_hash()

        stats = service.stats_dict()
        assert stats["submitted"] == 8 * 200 + len(racing)
        assert stats["executed"] == 20
        assert stats["failed"] == stats["cancelled"] == 0
        assert identity_holds(stats, 0)
        # snapshot() is one consistent cut, so the identity holds mid-flight.
        assert snapshots
        assert all(identity_holds(s, s["inflight"]) for s in snapshots)
        assert sum(service.snapshot()["executed_by"].values()) == 20
        assert seqs == list(range(len(seqs)))

    def test_every_scrape_is_a_consistent_cut(self, front_door):
        """Four threads submit unique, duplicate and cached jobs while the
        gate is shut and after it opens, and another thread calls
        ``collect()`` throughout: the identity holds on every scrape."""
        service, backend, seqs = front_door
        gate = Path(backend.gate_path)
        cached = [_job(200 + tag, backend.name) for tag in range(4)]
        gate.touch()
        service.run(cached, client_name="warm")
        gate.unlink()  # from here new jobs pile up in flight
        shared = [_job(300 + tag, backend.name) for tag in range(4)]
        scrapes, tickets, unexpected = [], [], []
        stop = threading.Event()

        def scraper():
            while not stop.is_set():
                scrapes.append({f.name: f.samples[0].value for f in service.collect()})

        def submitter(index):
            rng = random.Random(index)
            for step in range(40):
                unique = _job(1000 * (index + 1) + step, backend.name)
                job = rng.choice((unique, rng.choice(shared), rng.choice(cached)))
                try:
                    tickets.append(service.submit(job, client_name=f"t{index}"))
                except QueueFullError:
                    pass

        def guarded(body, *args):
            def target():
                try:
                    body(*args)
                except BaseException as error:  # noqa: BLE001 — the assertion below
                    unexpected.append(error)

            return threading.Thread(target=target, daemon=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            watcher = guarded(scraper)
            watcher.start()
            threads = [guarded(submitter, index) for index in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            gate.touch()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a submitter hung"
            for ticket in tickets:
                ticket.result(30)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        watcher.join(timeout=30)
        assert unexpected == []
        scrapes.append({f.name: f.samples[0].value for f in service.collect()})
        assert len(scrapes) > 1

        def holds(scrape):
            counts = {t: scrape.get(f"repro_{t}_total", 0) for t in IDENTITY_TERMS}
            counts["submitted"] = scrape["repro_submitted_total"]
            return identity_holds(counts, scrape["repro_inflight"])

        assert all(holds(scrape) for scrape in scrapes)
        assert scrapes[-1]["repro_inflight"] == 0
        assert scrapes[-1]["repro_submitted_total"] == 4 + 4 * 40
