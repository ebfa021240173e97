"""Pin test: a live ``/metrics`` scrape says what ``/snapshot`` says.

Two real services sit behind a :class:`MetricsServer` and are scraped over
HTTP: a thread :class:`ServiceClient` with a cache (one coalesce, one cache
hit, one ``QueueFullError`` rejection) and a 2-shard
:class:`ClusterService` with a cache and a journal.  Both are scraped while
one job executes and one waits in the queue, so the gauges are non-zero.

For each service the test pins the exact family set — name, kind, help,
label keys — and checks every sample against the matching ``snapshot()``
field: counters, gauges, per-executor rows, the latency histogram, macro
totals, cache stats and shard rows.  It also pins the snapshot's top-level
keys in order.  Family order is not pinned.
"""

import json
import re
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.obs.http import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.runtime import SimJob, SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend
from repro.serve import QueueFullError, ServiceClient, ServiceConfig
from repro.workloads import GemmWorkload

from test_obs_exposition import parse_exposition

MACRO = {"jumps": 2, "cycles_skipped": 64}

#: Counter family -> snapshot key, per transport.
COMMON_COUNTERS = {
    "repro_submitted_total": "submitted",
    "repro_coalesced_total": "coalesced",
    "repro_cache_hits_total": "cache_hits",
    "repro_executed_total": "executed",
    "repro_failed_total": "failed",
    "repro_cancelled_total": "cancelled",
}
THREAD_COUNTERS = {**COMMON_COUNTERS, "repro_rejected_total": "rejected"}
CLUSTER_COUNTERS = {
    **COMMON_COUNTERS,
    "repro_journal_hits_total": "journal_hits",
    "repro_requeued_total": "requeued",
    "repro_journal_recovered_total": "recovered",
    "repro_shard_restarts_total": "restarts",
}
GAUGES = {
    "repro_queue_depth": "queue_depth",
    "repro_inflight": "inflight",
    "repro_coalescing_hit_rate": "coalescing_hit_rate",
    "repro_cache_hit_rate": "cache_hit_rate",
}
CACHE_FAMILIES = {
    "repro_result_cache_entries": "entries",
    "repro_result_cache_size_bytes": "size_bytes",
    "repro_result_cache_held_entries": "held_entries",
    "repro_result_cache_held_bytes": "held_bytes",
    "repro_result_cache_lookup_hits_total": "hits",
    "repro_result_cache_lookup_misses_total": "misses",
}

#: name -> (kind, help, label keys), as the parent commit scrapes them.
COMMON_FAMILIES = {
    "repro_queue_depth": ("gauge", "Jobs admitted but not yet picked up by a worker.", ()),
    "repro_inflight": ("gauge", "Unique jobs between admission and completion.", ()),
    "repro_coalescing_hit_rate": (
        "gauge",
        "Fraction of submissions served by riding an in-flight duplicate.",
        (),
    ),
    "repro_cache_hit_rate": (
        "gauge",
        "Fraction of submissions resolved from the cache (or journal).",
        (),
    ),
    "repro_submitted_total": ("counter", "Jobs submitted to the service.", ()),
    "repro_coalesced_total": (
        "counter",
        "Submissions that rode an identical in-flight job.",
        (),
    ),
    "repro_cache_hits_total": ("counter", "Submissions resolved from the result cache.", ()),
    "repro_executed_total": ("counter", "Jobs actually simulated by a backend.", ()),
    "repro_failed_total": ("counter", "Jobs whose backend raised.", ()),
    "repro_cancelled_total": (
        "counter",
        "Admitted jobs abandoned unsettled by a non-draining close.",
        (),
    ),
    "repro_macro_jumps_total": (
        "counter",
        "Steady-span macro jumps taken by the event engine.",
        (),
    ),
    "repro_macro_cycles_skipped_total": (
        "counter",
        "Cycles bulk-advanced by the macro-step fast path.",
        (),
    ),
    "repro_latency_seconds": (
        "histogram",
        "Admission-to-completion latency of executed jobs.",
        ("le",),
    ),
    "repro_result_cache_entries": ("gauge", "Entries in the on-disk result cache.", ()),
    "repro_result_cache_size_bytes": ("gauge", "On-disk size of the result cache.", ()),
    "repro_result_cache_held_entries": (
        "gauge",
        "Result-cache entries held in this process's memory.",
        (),
    ),
    "repro_result_cache_held_bytes": (
        "gauge",
        "Pickle bytes of the result-cache entries held in memory.",
        (),
    ),
    "repro_result_cache_lookup_hits_total": (
        "counter",
        "Counted ResultCache.get hits of this process.",
        (),
    ),
    "repro_result_cache_lookup_misses_total": (
        "counter",
        "Counted ResultCache.get misses of this process.",
        (),
    ),
}
THREAD_FAMILIES = {
    **COMMON_FAMILIES,
    "repro_rejected_total": ("counter", "Submissions bounced by the admission queue.", ()),
    "repro_worker_executed_total": ("counter", "Jobs completed per worker slot.", ("worker",)),
}
CLUSTER_FAMILIES = {
    **COMMON_FAMILIES,
    "repro_journal_hits_total": (
        "counter",
        "Submissions served from journal-replayed completions.",
        (),
    ),
    "repro_requeued_total": (
        "counter",
        "In-flight jobs redispatched after a shard crash.",
        (),
    ),
    "repro_journal_recovered_total": (
        "counter",
        "Unfinished journal entries replayed at startup.",
        (),
    ),
    "repro_shard_restarts_total": (
        "counter",
        "Shard restarts performed by the supervisor.",
        (),
    ),
    "repro_shard_count": ("gauge", "Configured shard processes.", ()),
    "repro_shard_alive": ("gauge", "Liveness of each shard process (1 = alive).", ("shard",)),
    "repro_shard_executed_total": ("counter", "Jobs executed per shard.", ("shard",)),
}

THREAD_SNAPSHOT_KEYS = [
    "queue_depth",
    "inflight",
    "submitted",
    "coalesced",
    "cache_hits",
    "executed",
    "failed",
    "rejected",
    "cancelled",
    "coalescing_hit_rate",
    "cache_hit_rate",
    "executed_by",
    "latency",
    "macro",
    "cache",
]
CLUSTER_SNAPSHOT_KEYS = [
    "queue_depth",
    "inflight",
    "submitted",
    "coalesced",
    "cache_hits",
    "journal_hits",
    "executed",
    "failed",
    "cancelled",
    "requeued",
    "recovered",
    "coalescing_hit_rate",
    "cache_hit_rate",
    "executed_by",
    "latency",
    "macro",
    "cache",
    "shards",
    "shard_count",
    "restarts",
    "journal",
]

_SAMPLE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")


class PhaseGatedBackend(SimulationBackend):
    """Holds a job until ``open-<seed // 100>`` exists in ``gate_dir`` (a
    file, so it works inside a shard process too); every outcome carries
    macro-step stats so the macro totals are non-zero."""

    def __init__(self, name, gate_dir):
        self.name = name
        self.gate_dir = str(gate_dir)

    def execute(self, job):
        gate = Path(self.gate_dir) / f"open-{job.seed // 100}"
        deadline = time.monotonic() + 30.0
        while not gate.exists():
            assert time.monotonic() < deadline, "test gate never released"
            time.sleep(0.01)
        ideal = job.workload.ideal_compute_cycles(
            job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
        )
        return SimOutcome.analytic(
            job, utilization=0.5, ideal_compute_cycles=ideal, macro_stats=dict(MACRO)
        )


def _job(backend, seed):
    return SimJob(
        workload=GemmWorkload(name=f"pin_{seed}", m=8, n=8, k=8),
        backend=backend.name,
        seed=seed,
    )


def _wait_for(service, queue_depth, inflight):
    deadline = time.monotonic() + 30.0
    while True:
        snapshot = service.snapshot()
        if (snapshot["queue_depth"], snapshot["inflight"]) == (queue_depth, inflight):
            return
        assert time.monotonic() < deadline, f"service never reached {snapshot}"
        time.sleep(0.01)


def _parse(text):
    """{name: {"kind", "help", "samples": [(suffix, labels, value)]}}."""
    parse_exposition(text)  # every line must be valid exposition
    families = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, name, help = line.split(" ", 3)
            families.setdefault(name, {"samples": []})["help"] = help
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families.setdefault(name, {"samples": []})["kind"] = kind
        else:
            match = _SAMPLE_RE.match(line)
            name, suffix = match.group("name"), ""
            if name not in families:
                name, suffix = name.rsplit("_", 1)
                suffix = "_" + suffix
            labels = dict(
                pair.split("=", 1) for pair in (match.group("labels") or "").split(",") if pair
            )
            labels = {key: value.strip('"') for key, value in labels.items()}
            raw = match.group("value")
            value = float(raw) if any(c in raw for c in ".eE") else int(raw)
            families[name]["samples"].append((suffix, labels, value))
    return families


def scrape(service):
    """One ``/metrics`` and one ``/snapshot`` over real HTTP."""
    with MetricsServer(service, registry=MetricsRegistry()) as server:
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as response:
            metrics = response.read().decode("utf-8")
        with urllib.request.urlopen(f"{server.url}/snapshot", timeout=10) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
    return _parse(metrics), snapshot


def _value(family):
    ((suffix, labels, value),) = family["samples"]
    assert suffix == "" and labels == {}
    return value


def _rows(family, label):
    return {labels[label]: value for _, labels, value in family["samples"]}


def check_scrape(families, snapshot, expected, counters, executor_family, label):
    """Every family of ``expected`` is scraped exactly, and each value is
    the matching snapshot field."""
    assert set(families) == set(expected)
    for name, (kind, help, label_keys) in expected.items():
        family = families[name]
        assert (family["kind"], family["help"]) == (kind, help), name
        keys = {key for _, labels, _ in family["samples"] for key in labels}
        assert keys == set(label_keys), name

    for name, key in {**counters, **GAUGES}.items():
        assert _value(families[name]) == snapshot[key], name
    assert _value(families["repro_macro_jumps_total"]) == snapshot["macro"]["jumps"]
    assert (
        _value(families["repro_macro_cycles_skipped_total"])
        == snapshot["macro"]["cycles_skipped"]
    )
    for name, key in CACHE_FAMILIES.items():
        assert _value(families[name]) == snapshot["cache"][key], name

    # Per-executor rows (JSON keys are strings, as labels are).
    assert _rows(families[executor_family], label) == snapshot["executed_by"]

    # Latency: _count, _sum and the cumulative buckets.
    latency = snapshot["latency"]
    samples = families["repro_latency_seconds"]["samples"]
    by_suffix = {}
    for suffix, labels, value in samples:
        by_suffix.setdefault(suffix, []).append((labels, value))
    assert by_suffix["_count"] == [({}, latency["count"])]
    assert by_suffix["_sum"] == [({}, latency["sum_seconds"])]
    cumulative, expected_buckets = 0, []
    for row in latency["buckets"]:
        cumulative += row["count"]
        le = "+Inf" if row["le"] is None else repr(float(row["le"]))
        expected_buckets.append(({"le": le}, cumulative))
    assert by_suffix["_bucket"] == expected_buckets


@pytest.fixture
def backend(tmp_path):
    backend = PhaseGatedBackend(f"pin-{time.time_ns()}", tmp_path / "gates")
    Path(backend.gate_dir).mkdir()
    register_backend(backend)  # pre-fork: the shards inherit it
    return backend


def _open(backend, phase):
    (Path(backend.gate_dir) / f"open-{phase}").touch()


def test_thread_service_scrape_matches_snapshot(tmp_path, backend):
    service = ServiceClient(
        cache_dir=tmp_path / "cache", config=ServiceConfig(max_workers=1, max_backlog=1)
    )
    try:
        a, b, c = (_job(backend, seed) for seed in (1, 2, 3))
        first = service.submit(a)
        _wait_for(service, queue_depth=0, inflight=1)  # the worker holds a
        second = service.submit(b)  # queued: the backlog is full
        with pytest.raises(QueueFullError):
            service.submit(c)
        assert service.submit(a).coalesced
        _open(backend, 0)
        first.result(30), second.result(30)
        assert service.submit(a).cache_hit
        # One job executing, one queued, while the scrape runs.
        service.submit(_job(backend, 101))
        _wait_for(service, queue_depth=0, inflight=1)
        service.submit(_job(backend, 102))
        families, snapshot = scrape(service)
    finally:
        _open(backend, 1)
        service.close()

    assert list(snapshot) == THREAD_SNAPSHOT_KEYS
    assert len(families) == 21
    check_scrape(
        families, snapshot, THREAD_FAMILIES, THREAD_COUNTERS,
        "repro_worker_executed_total", "worker",
    )
    # The scenario ran as intended: every count below is the snapshot's too.
    assert (snapshot["queue_depth"], snapshot["inflight"]) == (1, 2)
    assert snapshot["rejected"] == snapshot["coalesced"] == snapshot["cache_hits"] == 1
    assert snapshot["executed"] == 2 and snapshot["submitted"] == 7
    assert snapshot["macro"] == {k: 2 * v for k, v in MACRO.items()}
    assert snapshot["latency"]["count"] == 2


def test_cluster_scrape_matches_snapshot(tmp_path, backend):
    config = ClusterConfig(
        shards=2,
        heartbeat_interval=0.1,
        heartbeat_timeout=15.0,
        ready_timeout=15.0,
        shutdown_timeout=30.0,
    )
    service = ClusterService(
        cache_dir=tmp_path / "cache", config=config, journal=tmp_path / "serve.jsonl"
    )
    try:
        a, b = _job(backend, 1), _job(backend, 2)
        tickets = [service.submit(a), service.submit(b)]
        assert service.submit(a).coalesced
        _open(backend, 0)
        for ticket in tickets:
            ticket.result(30)
        assert service.submit(a).cache_hit
        # Both shards executing, one job queued, while the scrape runs.
        for seed in (101, 102, 103):
            service.submit(_job(backend, seed))
        _wait_for(service, queue_depth=1, inflight=3)
        families, snapshot = scrape(service)
    finally:
        _open(backend, 1)
        service.close()

    assert list(snapshot) == CLUSTER_SNAPSHOT_KEYS
    assert len(families) == 26
    check_scrape(
        families, snapshot, CLUSTER_FAMILIES, CLUSTER_COUNTERS,
        "repro_shard_executed_total", "shard",
    )
    assert _value(families["repro_shard_count"]) == snapshot["shard_count"] == 2
    alive = {str(row["shard"]): int(row["alive"]) for row in snapshot["shards"]}
    assert _rows(families["repro_shard_alive"], "shard") == alive == {"0": 1, "1": 1}
    assert snapshot["journal"] == str(tmp_path / "serve.jsonl")
    assert snapshot["coalesced"] == snapshot["cache_hits"] == 1
    assert snapshot["executed"] == 2 and snapshot["submitted"] == 7
    assert snapshot["macro"] == {k: 2 * v for k, v in MACRO.items()}
