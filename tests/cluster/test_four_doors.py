"""One batch through every front door: ``Simulator()`` (the inline shell),
``Simulator`` over a ``ServiceClient``, the ``--jobs 2`` simulator (an inline
shell whose batches run on two shards), ``ServiceClient`` (worker threads)
and ``ClusterService`` with one and with two shards (shard processes) agree
on outcomes and counters, and each answers ``snapshot()``.

The batch holds three unique jobs, an in-batch duplicate and one job already
in the door's result cache, so it crosses every admission path: execute,
coalesce and probe hit.
"""

from contextlib import ExitStack

import pytest

from repro.cli import _simulator_from_args, build_parser
from repro.cluster import ClusterConfig, ClusterService
from repro.runtime import ResultCache, Simulator
from repro.runtime.admission import SERVICE_COUNTERS
from repro.serve import ServiceClient


def facade(make):
    """A ``Simulator`` door: its batch call is ``simulate_many``."""

    def open_door(cache, resources):
        door = make(cache, resources)
        return door, door.simulate_many

    return open_door


def service(make):
    """A service door: its batch call is ``run``; ``resources`` closes it."""

    def open_door(cache, resources):
        door = resources.enter_context(make(cache))
        return door, door.run

    return open_door


def jobs_two(cache, resources):
    """The simulator ``repro batch --jobs 2 --cache-dir <cache>`` runs on."""
    args = build_parser().parse_args(
        ["batch", "gemm:8x8x8", "--jobs", "2", "--cache-dir", str(cache.root)]
    )
    args.resources = resources
    return _simulator_from_args(args)


DOORS = {
    "Simulator()": facade(lambda cache, _resources: Simulator(cache=cache)),
    "Simulator(service=ServiceClient)": facade(
        lambda cache, resources: Simulator(
            service=resources.enter_context(ServiceClient(cache=cache))
        )
    ),
    "--jobs 2": facade(jobs_two),
    "ServiceClient": service(lambda cache: ServiceClient(cache=cache)),
    "ClusterService, 1 shard": service(
        lambda cache: ClusterService(cache=cache, config=ClusterConfig(shards=1))
    ),
    "ClusterService, 2 shards": service(
        lambda cache: ClusterService(cache=cache, config=ClusterConfig(shards=2))
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

    with ExitStack() as resources:
        shell, run = DOORS[door](cache, resources)
        outcomes = run(batch)
        snapshot = shell.snapshot()

    assert [outcome.as_dict() for outcome in outcomes] == expected
    assert {row: snapshot[row] for row in COMMON} == {row: EXPECTED.get(row, 0) for row in COMMON}
    # The accounting identity on the one snapshot: each submission ended one
    # way, or is still in flight.
    ended = sum(snapshot.get(term, 0) for term in ENDINGS)
    assert snapshot["submitted"] == snapshot["inflight"] + ended
