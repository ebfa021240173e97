"""Tests for Prometheus text rendering and snapshot → family mapping."""

import re

import pytest

from repro.obs.exposition import CONTENT_TYPE, render, snapshot_families
from repro.obs.metrics import Histogram, MetricFamily, MetricsRegistry, Sample

# Exposition-format grammar (format 0.0.4): a scrape is HELP/TYPE comment
# lines plus sample lines `name{labels} value`.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|\+Inf|-Inf|NaN))$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def parse_exposition(text):
    """Validate every line of a scrape; return {family: {"type", "samples"}}."""
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    declared_type = {}
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "untyped"), line
            assert name not in declared_type, f"duplicate TYPE for {name}"
            declared_type[name] = kind
            families.setdefault(name, {"type": kind, "samples": []})
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        if match.group("labels"):
            for pair in match.group("labels").split(","):
                assert _LABEL_RE.match(pair), f"malformed label: {pair!r}"
        base = match.group("name")
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in declared_type:
                base = base[: -len(suffix)]
                break
        assert base in declared_type, f"sample before TYPE: {line!r}"
        families[base]["samples"].append(line)
    return families


def thread_snapshot(**overrides):
    hist = Histogram((0.1, 1.0), name="repro_latency_seconds")
    hist.observe(0.5)
    snapshot = {
        "submitted": 5,
        "executed": 3,
        "coalesced": 1,
        "cache_hits": 1,
        "failed": 0,
        "rejected": 2,
        "cancelled": 0,
        "coalescing_hit_rate": 0.2,
        "cache_hit_rate": 0.2,
        "queue_depth": 4,
        "inflight": 2,
        "executed_by": {"0": 2, "1": 1},
        "latency": hist.as_dict(),
        "macro": {"jumps": 2, "cycles_skipped": 1000},
        "cache": {"entries": 7, "size_bytes": 99, "hits": 1, "misses": 2},
    }
    snapshot.update(overrides)
    return snapshot


def cluster_snapshot():
    """The parent's snapshot: the core's shape plus the shard rows."""
    hist = Histogram((0.1, 1.0), name="repro_latency_seconds")
    hist.observe(0.05)
    hist.observe(0.5)
    return {
        "submitted": 9,
        "executed": 5,
        "coalesced": 1,
        "cache_hits": 0,
        "journal_hits": 2,
        "failed": 0,
        "cancelled": 0,
        "requeued": 1,
        "recovered": 3,
        "coalescing_hit_rate": 0.1,
        "cache_hit_rate": 0.0,
        "queue_depth": 1,
        "inflight": 1,
        "executed_by": {0: 4, 1: 1},
        "latency": hist.as_dict(),
        "macro": {"jumps": 2, "cycles_skipped": 20},
        "restarts": 1,
        "shard_count": 2,
        "shards": [
            {"shard": 0, "alive": True, "pid": 11},
            {"shard": 1, "alive": False, "pid": 12},
        ],
    }


class TestRender:
    def test_content_type_pins_exposition_version(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_every_line_of_thread_scrape_parses(self):
        text = render(snapshot_families(thread_snapshot()))
        families = parse_exposition(text)
        assert families["repro_submitted_total"]["type"] == "counter"
        assert "repro_submitted_total 5" in families["repro_submitted_total"]["samples"]
        assert "repro_queue_depth 4" in families["repro_queue_depth"]["samples"]

    def test_every_line_of_cluster_scrape_parses(self):
        text = render(snapshot_families(cluster_snapshot()))
        families = parse_exposition(text)
        assert 'repro_shard_executed_total{shard="0"} 4' in (
            families["repro_shard_executed_total"]["samples"]
        )
        assert "repro_journal_recovered_total 3" in (
            families["repro_journal_recovered_total"]["samples"]
        )

    def test_label_values_escaped(self):
        family = MetricFamily(
            "repro_x_total",
            "counter",
            'tricky "help"\nwith newline',
            (Sample(labels={"who": 'a"b\\c\nd'}, value=1),),
        )
        text = render([family])
        parse_exposition(text)
        assert '\\"b\\\\c\\nd' in text

    def test_registry_collect_renders(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x").inc(3)
        registry.gauge("repro_depth", "d").set(2)
        hist = registry.histogram("repro_latency_seconds", "lat", bounds=(0.1, 1.0))
        hist.observe(0.5)
        families = parse_exposition(render(registry.collect()))
        assert families["repro_latency_seconds"]["type"] == "histogram"


class TestSnapshotFamilies:
    def test_thread_shape_counters(self):
        families = {f.name: f for f in snapshot_families(thread_snapshot())}
        assert families["repro_executed_total"].samples[0].value == 3
        assert families["repro_rejected_total"].samples[0].value == 2
        assert "repro_journal_hits_total" not in families  # cluster-only
        workers = families["repro_worker_executed_total"].samples
        assert {s.labels["worker"]: s.value for s in workers} == {"0": 2, "1": 1}

    def test_cluster_shape_counters_and_shards(self):
        families = {f.name: f for f in snapshot_families(cluster_snapshot())}
        assert families["repro_journal_hits_total"].samples[0].value == 2
        assert families["repro_shard_restarts_total"].samples[0].value == 1
        assert "repro_rejected_total" not in families  # thread-only
        assert "repro_worker_executed_total" not in families  # keyed by shard
        alive = {s.labels["shard"]: s.value for s in families["repro_shard_alive"].samples}
        assert alive == {"0": 1, "1": 0}

    def test_cluster_latency_is_the_parents_histogram(self):
        """The parent times every job from admission to settle: its one
        histogram is the family, nothing is merged."""
        families = {f.name: f for f in snapshot_families(cluster_snapshot())}
        samples = families["repro_latency_seconds"].samples
        count = next(s.value for s in samples if s.suffix == "_count")
        assert count == 2
        buckets = [s.value for s in samples if s.suffix == "_bucket"]
        assert buckets == [1, 2, 2]  # <= 0.1, <= 1.0, +Inf

    def test_cluster_macro_totals_summed(self):
        """The core sums each executed outcome's macro stats as it settles;
        the families carry the totals."""
        families = {f.name: f for f in snapshot_families(cluster_snapshot())}
        assert families["repro_macro_jumps_total"].samples[0].value == 2
        assert families["repro_macro_cycles_skipped_total"].samples[0].value == 20

    def test_histogram_buckets_cumulative_monotone(self):
        families = snapshot_families(thread_snapshot())
        latency = next(f for f in families if f.name == "repro_latency_seconds")
        buckets = [s.value for s in latency.samples if s.suffix == "_bucket"]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 1

    def test_cache_stats_become_result_cache_families(self):
        families = {f.name: f for f in snapshot_families(thread_snapshot())}
        assert families["repro_result_cache_entries"].samples[0].value == 7
        assert families["repro_result_cache_lookup_misses_total"].samples[0].value == 2

    def test_held_tier_becomes_two_gauges(self, tmp_path):
        from repro.obs.exposition import cache_families
        from repro.runtime import ResultCache, SimJob, SimOutcome
        from repro.workloads import GemmWorkload

        cache = ResultCache(tmp_path)
        job = SimJob(
            workload=GemmWorkload(name="held", m=8, n=8, k=8),
            backend="baseline:feather",
        )
        cache.put(job.job_hash(), SimOutcome.analytic(job, 0.5, 64))
        stats = cache.stats()
        families = {f.name: f for f in cache_families(stats)}
        assert families["repro_result_cache_held_entries"].kind == "gauge"
        assert families["repro_result_cache_held_entries"].samples[0].value == 1
        held_bytes = families["repro_result_cache_held_bytes"].samples[0].value
        assert held_bytes == stats["size_bytes"] > 0
        parse_exposition(render(families.values()))

    def test_missing_optional_keys_tolerated(self):
        families = snapshot_families({"submitted": 1})
        text = render(families)
        parse_exposition(text)
        assert "repro_submitted_total 1" in text

    def test_real_service_snapshot_renders(self, stub_backend):
        from repro.runtime import SimJob
        from repro.serve import ServiceClient
        from repro.workloads import GemmWorkload

        backend = stub_backend()
        client = ServiceClient(cache_dir=None)
        try:
            job = SimJob(
                workload=GemmWorkload(name="expo_gemm", m=8, n=8, k=8),
                backend=backend.name,
            )
            client.submit(job).result(timeout=10)
            snapshot = client.snapshot()
        finally:
            client.close(drain=True)
        families = parse_exposition(render(snapshot_families(snapshot)))
        assert "repro_executed_total 1" in families["repro_executed_total"]["samples"]
