"""The client's event mirror is a ring, not a log.

``cluster/worker.py`` builds a ``ServiceClient`` per shard and never reads
``events()``, and ``repro serve`` never clears it: an unbounded mirror kept
~3 ``ServiceEvent``s per request for the life of every shard and daemon.
"""

import threading

from repro.serve import ServiceClient, ServiceConfig
from repro.serve.client import EVENT_BUFFER


def test_ten_thousand_submissions_leave_the_mirror_bounded(stub_backend, make_job):
    # Held in flight while the burst arrives, so most of it coalesces
    # (two events per submission) instead of executing 10k stub jobs.
    gate = threading.Event()
    backend = stub_backend(gate=gate)
    job = make_job(backend.name)
    streamed = []
    threading.Timer(0.5, gate.set).start()
    with ServiceClient(
        config=ServiceConfig(max_workers=1), on_event=streamed.append
    ) as client:
        client.run([job] * 10_000)
        retained = client.events()
        assert len(streamed) >= 20_000  # submitted + coalesced/queued/... each
        assert len(retained) == EVENT_BUFFER
        # The most recent events, oldest first, nothing skipped.
        assert retained == streamed[-EVENT_BUFFER:]
        assert [e.seq for e in retained] == list(
            range(retained[0].seq, retained[0].seq + EVENT_BUFFER)
        )
        # Draining hands the same events over and empties the ring.
        assert client.events(clear=True) == retained
        assert client.events() == []
    # on_event is the way to see every event; it was not truncated.
    assert [e.seq for e in streamed] == list(range(len(streamed)))
