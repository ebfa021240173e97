"""One batch through every front door: ``Simulator()`` (the shell's inline
executor), ``ServiceClient`` (worker threads) and ``ClusterService`` with one
and with two shards (shard processes) agree on outcomes and counters.

The batch holds three unique jobs, an in-batch duplicate and one job already
in the door's result cache, so it crosses every admission path: execute,
coalesce and probe hit.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.runtime import ResultCache, Simulator
from repro.runtime.admission import SERVICE_COUNTERS
from repro.serve import ServiceClient

DOORS = {
    "Simulator()": lambda cache: Simulator(cache=cache),
    "ServiceClient": lambda cache: ServiceClient(cache=cache),
    "ClusterService, 1 shard": lambda cache: ClusterService(
        cache=cache, config=ClusterConfig(shards=1)
    ),
    "ClusterService, 2 shards": lambda cache: ClusterService(
        cache=cache, config=ClusterConfig(shards=2)
    ),
}

#: The counter rows every door carries, and their values after the batch.
COMMON = {attr for attr, _name, _help, scope in SERVICE_COUNTERS if scope == "common"}
EXPECTED = {"submitted": 5, "coalesced": 1, "cache_hits": 1, "executed": 3}
#: Every way a submission ends (``runtime/admission.py``'s identity).
ENDINGS = ("coalesced", "cache_hits", "journal_hits", "executed", "failed", "rejected", "cancelled")


@pytest.mark.parametrize("door", list(DOORS))
def test_every_door_agrees_on_one_batch(door, instant_backend, make_job, tmp_path):
    unique = [make_job(instant_backend.name, tag=tag) for tag in range(3)]
    cached = make_job(instant_backend.name, tag=3)
    batch = unique + [unique[1], cached]
    cache = ResultCache(tmp_path / "cache")
    cache.put(cached.job_hash(), instant_backend.execute(cached))
    expected = [instant_backend.execute(job).as_dict() for job in batch]
    expected[-1]["cache_hit"] = True

    shell = DOORS[door](cache)
    try:
        run = shell.simulate_many if isinstance(shell, Simulator) else shell.run
        outcomes = run(batch)
        snapshot = shell.snapshot()
    finally:
        if not isinstance(shell, Simulator):
            shell.close()

    assert [outcome.as_dict() for outcome in outcomes] == expected
    assert {row: snapshot[row] for row in COMMON} == {row: EXPECTED.get(row, 0) for row in COMMON}
    # The accounting identity on the one snapshot: each submission ended one
    # way, or is still in flight.
    ended = sum(snapshot.get(term, 0) for term in ENDINGS)
    assert snapshot["submitted"] == snapshot["inflight"] + ended
