"""Tests for Prometheus text rendering of registries and live services."""

import re

import pytest

from repro.obs.exposition import CONTENT_TYPE, cache_families, render
from repro.obs.metrics import MetricFamily, MetricsRegistry, Sample

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


def _job(backend, tag=0):
    from repro.runtime import SimJob
    from repro.workloads import GemmWorkload

    return SimJob(
        workload=GemmWorkload(name=f"expo_{tag}", m=8, n=8, k=8),
        backend=backend.name,
        seed=tag,
    )


class TestRender:
    def test_content_type_pins_exposition_version(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_every_line_of_thread_scrape_parses(self, stub_backend):
        from repro.serve import ServiceClient

        backend = stub_backend()
        with ServiceClient(cache_dir=None) as client:
            client.run([_job(backend, 1), _job(backend, 1), _job(backend, 2)])
            families = parse_exposition(render(client.collect()))
        assert families["repro_submitted_total"]["type"] == "counter"
        assert "repro_submitted_total 3" in families["repro_submitted_total"]["samples"]
        assert "repro_executed_total 2" in families["repro_executed_total"]["samples"]
        assert "repro_queue_depth 0" in families["repro_queue_depth"]["samples"]
        assert "repro_journal_hits_total" not in families  # cluster-only

    def test_every_line_of_cluster_scrape_parses(self, stub_backend):
        from repro.cluster import ClusterConfig, ClusterService

        backend = stub_backend()  # registered pre-fork: the shard inherits it
        with ClusterService(cache_dir=None, config=ClusterConfig(shards=1)) as cluster:
            cluster.run([_job(backend, 1), _job(backend, 2)])
            families = parse_exposition(render(cluster.collect()))
        assert 'repro_shard_executed_total{shard="0"} 2' in (
            families["repro_shard_executed_total"]["samples"]
        )
        assert 'repro_shard_alive{shard="0"} 1' in families["repro_shard_alive"]["samples"]
        assert "repro_journal_recovered_total 0" in (
            families["repro_journal_recovered_total"]["samples"]
        )
        assert "repro_rejected_total" not in families  # thread-only
        assert "repro_worker_executed_total" not in families  # keyed by shard

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
        registry.gauge("repro_depth", "d", lambda: 2)
        hist = registry.histogram("repro_latency_seconds", "lat", bounds=(0.1, 1.0))
        hist.observe(0.5)
        families = parse_exposition(render(registry.collect()))
        assert families["repro_latency_seconds"]["type"] == "histogram"


class TestCacheFamilies:
    def test_held_tier_becomes_two_gauges(self, tmp_path):
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
