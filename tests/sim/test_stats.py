"""Tests for the statistics counter containers."""

from repro.sim import StatCounters, StreamerStats


class TestStatCounters:
    def test_add_creates_counter(self):
        counters = StatCounters()
        counters.add("reads")
        counters.add("reads", 4)
        assert counters.get("reads") == 5

    def test_get_default(self):
        counters = StatCounters()
        assert counters.get("missing") == 0
        assert counters.get("missing", 7) == 7

    def test_set_overwrites(self):
        counters = StatCounters()
        counters.add("x", 3)
        counters.set("x", 10)
        assert counters.get("x") == 10

    def test_merge_adds_counterwise(self):
        a = StatCounters()
        b = StatCounters()
        a.add("reads", 2)
        b.add("reads", 3)
        b.add("writes", 1)
        a.merge(b)
        assert a.get("reads") == 5
        assert a.get("writes") == 1

    def test_contains_and_reset(self):
        counters = StatCounters()
        counters.add("hits")
        assert "hits" in counters
        counters.reset()
        assert "hits" not in counters
        assert counters.as_dict() == {}


class TestStreamerStats:
    def test_as_dict_includes_extension_counts(self):
        stats = StreamerStats(name="dm_a", words_streamed=12)
        stats.extension_words["transposer_0_processed"] = 12
        data = stats.as_dict()
        assert data["words_streamed"] == 12
        assert data["extension_transposer_0_processed"] == 12
