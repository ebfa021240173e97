"""Unit tests for the obs metric primitives and the registry."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("repro_x_total", "x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_value_stays_int_for_int_increments(self):
        counter = Counter("repro_x_total", "x")
        counter.inc(3)
        assert isinstance(counter.value, int)

    def test_negative_increment_rejected(self):
        counter = Counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad name", "x")

    def test_concurrent_increments_do_not_drop(self):
        counter = Counter("repro_x_total", "x")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000

    def test_family_single_sample(self):
        counter = Counter("repro_x_total", "x")
        counter.inc(2)
        family = counter.family()
        assert family.kind == "counter"
        assert [sample.value for sample in family.samples] == [2]


class TestGauge:
    def test_callback_gauge_reads_live_value(self):
        box = {"value": 3}
        gauge = Gauge("repro_depth", "d", fn=lambda: box["value"])
        assert gauge.value == 3
        box["value"] = 9
        assert gauge.value == 9

    def test_raising_callback_reads_zero(self):
        def boom():
            raise RuntimeError("dead source")

        gauge = Gauge("repro_depth", "d", fn=boom)
        assert gauge.value == 0


class TestHistogram:
    def test_bounds_must_be_sorted_and_non_empty(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_observe_routes_to_first_fitting_bucket(self):
        hist = Histogram((0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow bucket
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3

    # ------------------------------------------------------------------
    # Hardened quantile edge cases (satellite b).
    # ------------------------------------------------------------------
    def test_quantile_empty_histogram_is_zero(self):
        hist = Histogram(DEFAULT_LATENCY_BOUNDS)
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 0.0

    def test_quantile_single_sample_every_q_hits_its_bucket(self):
        hist = Histogram((0.1, 1.0, 10.0))
        hist.observe(0.5)
        # With one sample, every quantile — including q=0 — must resolve
        # to the sample's bucket bound, never an empty leading bucket.
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 1.0

    def test_quantile_out_of_range_raises(self):
        hist = Histogram((1.0,))
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_overflow_clamps_to_last_bound(self):
        hist = Histogram((0.1, 1.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 1.0

    def test_mean_and_sum(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)

    def test_family_buckets_are_cumulative_with_inf(self):
        hist = Histogram((0.1, 1.0), name="repro_latency_seconds")
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        family = hist.family()
        buckets = [s for s in family.samples if s.suffix == "_bucket"]
        values = [s.value for s in buckets]
        assert values == sorted(values)  # cumulative => monotone
        assert buckets[-1].labels["le"] == "+Inf"
        assert buckets[-1].value == 3


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x")
        second = registry.counter("repro_x_total", "other help ignored")
        assert first is second

    def test_kind_mismatch_raises_type_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(TypeError):
            registry.gauge("repro_x_total", "x", lambda: 0)

    def test_collect_includes_callback_families(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x").inc()
        registry.histogram("repro_latency_seconds", "lat", bounds=(1.0,))
        registry.add_callback("rows", lambda: [Counter("repro_rows_total", "r").family()])
        names = [family.name for family in registry.collect()]
        assert names == ["repro_x_total", "repro_latency_seconds", "repro_rows_total"]

    def test_raising_callback_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")

        def boom():
            raise RuntimeError("scrape-time failure")

        registry.add_callback("broken", boom)
        names = [family.name for family in registry.collect()]
        assert names == ["repro_x_total"]

    def test_add_callback_replaces_by_name(self):
        registry = MetricsRegistry()
        registry.add_callback("cb", lambda: [Counter("repro_a_total", "a").family()])
        registry.add_callback("cb", lambda: [Counter("repro_b_total", "b").family()])
        names = [family.name for family in registry.collect()]
        assert names == ["repro_b_total"]

    def test_global_registry_has_build_info(self):
        families = {family.name: family for family in get_registry().collect()}
        assert "repro_build_info" in families
        (sample,) = families["repro_build_info"].samples
        from repro import __version__

        assert sample.labels["version"] == __version__
