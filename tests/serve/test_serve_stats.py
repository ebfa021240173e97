"""Structured service stats: the latency histogram and ``snapshot()``."""

import pytest

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram
from repro.serve import ServiceClient, ServiceConfig


def latency_histogram(bounds=DEFAULT_LATENCY_BOUNDS):
    """The latency histogram as ``ServiceClient`` builds it."""
    return Histogram(bounds, name="repro_latency_seconds")


class TestLatencyHistogram:
    def test_empty(self):
        histogram = latency_histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_observations_land_in_cumulative_buckets(self):
        histogram = latency_histogram(bounds=(0.01, 0.1, 1.0))
        histogram.observe(0.005)  # <= 0.01
        histogram.observe(0.05)  # <= 0.1
        histogram.observe(0.5)  # <= 1.0
        histogram.observe(5.0)  # overflow
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.mean == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)

    def test_quantile_interpolates_within_bucket(self):
        histogram = latency_histogram(bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)  # all in the (1.0, 2.0] bucket
        p50 = histogram.quantile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_quantile_overflow_clamps_to_last_bound(self):
        histogram = latency_histogram(bounds=(0.5, 1.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 1.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            latency_histogram().quantile(1.5)

    def test_value_equality(self):
        first, second = latency_histogram(), latency_histogram()
        assert first == second
        first.observe(0.2)
        assert first != second
        second.observe(0.2)
        assert first == second

    def test_as_dict_shape(self):
        histogram = latency_histogram()
        histogram.observe(0.02)
        summary = histogram.as_dict()
        assert summary["count"] == 1
        assert summary["mean_seconds"] == pytest.approx(0.02)
        assert set(summary) >= {"p50_seconds", "p90_seconds", "p99_seconds"}
        # One bucket row per bound plus the open-ended overflow row.
        assert len(summary["buckets"]) == len(DEFAULT_LATENCY_BOUNDS) + 1
        assert summary["buckets"][-1]["le"] is None


class TestServiceSnapshot:
    def test_snapshot_counts_and_latency(self, stub_backend, make_job):
        backend = stub_backend()
        jobs = [make_job(backend.name, tag=i) for i in range(4)]

        with ServiceClient(config=ServiceConfig(max_workers=2)) as service:
            # One batch, one hold of the lock: the duplicate coalesces.
            service.run(jobs + [jobs[0]])
            snapshot = service.snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["inflight"] == 0
        assert snapshot["submitted"] == 5
        assert snapshot["executed"] == 4
        assert snapshot["coalesced"] == 1
        # Four completions → four latency observations.
        assert snapshot["latency"]["count"] == 4
        assert snapshot["latency"]["mean_seconds"] > 0
        # Every execution is attributed to a worker slot.
        assert sum(snapshot["executed_by"].values()) == 4
        assert all(index in (0, 1) for index in snapshot["executed_by"])

    def test_client_snapshot_readable_after_close(self, stub_backend, make_job):
        backend = stub_backend()
        client = ServiceClient(config=ServiceConfig(max_workers=1))
        try:
            client.run([make_job(backend.name, tag=i) for i in range(3)])
            live = client.snapshot()
            assert live["executed"] == 3
        finally:
            client.close()
        after = client.snapshot()
        assert after["executed"] == 3
        assert after["latency"]["count"] == 3


class TestStatsRegistryBacking:
    """ServiceStats counters live on an obs registry; the `+=` idiom and
    plain-int reads are unchanged, and every count is scrapeable."""

    def test_counters_visible_through_registry(self, stub_backend, make_job):
        backend = stub_backend()
        client = ServiceClient(config=ServiceConfig(max_workers=1))
        try:
            job = make_job(backend.name)
            client.run([job, job])  # second submission coalesces
        finally:
            client.close()
        stats = client.counters
        assert isinstance(stats.executed, int)
        assert stats.executed == 1
        assert stats.coalesced == 1
        # Counters, latency, per-worker rows and gauges: one registry.
        families = {f.name: f for f in client.collect()}
        assert families["repro_executed_total"].samples[0].value == 1
        assert families["repro_coalesced_total"].samples[0].value == 1
        assert "repro_latency_seconds" in families
        assert families["repro_inflight"].samples[0].value == 0
        workers = families["repro_worker_executed_total"].samples
        assert sum(s.value for s in workers) == 1

    def test_parallel_services_do_not_share_counters(self, stub_backend, make_job):
        backend = stub_backend()
        first = ServiceClient(config=ServiceConfig(max_workers=1))
        second = ServiceClient(config=ServiceConfig(max_workers=1))
        try:
            first.run([make_job(backend.name, tag=1)])
        finally:
            first.close()
            second.close()
        assert first.counters.executed == 1
        assert second.counters.executed == 0

    def test_snapshot_carries_macro_and_cache_sections(
        self, tmp_path, stub_backend, make_job
    ):
        backend = stub_backend()
        client = ServiceClient(
            cache_dir=tmp_path / "cache", config=ServiceConfig(max_workers=1)
        )
        try:
            client.run([make_job(backend.name)])
            snapshot = client.snapshot()
        finally:
            client.close()
        assert snapshot["macro"] == {"jumps": 0, "cycles_skipped": 0}
        cache = snapshot["cache"]
        assert cache["entries"] == 1  # the executed outcome was written back
        assert cache["misses"] == 1  # the admission probe missed

    def test_cacheless_snapshot_has_null_cache(self, stub_backend, make_job):
        backend = stub_backend()
        client = ServiceClient(cache_dir=None, config=ServiceConfig(max_workers=1))
        try:
            client.run([make_job(backend.name)])
            snapshot = client.snapshot()
        finally:
            client.close()
        assert snapshot["cache"] is None
