"""Tests for the per-streamer statistics summary."""

from repro.sim import StreamerStats


class TestStreamerStats:
    def test_as_dict_includes_extension_counts(self):
        stats = StreamerStats(name="dm_a", words_streamed=12)
        stats.extension_words["transposer_0_processed"] = 12
        data = stats.as_dict()
        assert data["words_streamed"] == 12
        assert data["extension_transposer_0_processed"] == 12
