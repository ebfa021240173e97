"""Tests for the metric helpers (box stats)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BoxStats


class TestBoxStats:
    def test_five_number_summary(self):
        stats = BoxStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.mean == 3.0
        assert stats.count == 5

    def test_single_sample(self):
        stats = BoxStats.from_samples([0.7])
        assert stats.minimum == stats.maximum == stats.median == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_samples([])

    def test_as_dict_keys(self):
        stats = BoxStats.from_samples([1.0, 2.0])
        assert set(stats.as_dict()) == {"min", "q1", "median", "q3", "max", "mean", "count"}

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_ordering_property(self, samples):
        stats = BoxStats.from_samples(samples)
        assert (
            stats.minimum
            <= stats.first_quartile
            <= stats.median
            <= stats.third_quartile
            <= stats.maximum
        )
        # The mean may differ from min/max by a rounding ulp when all samples
        # are identical.
        tolerance = 1e-12
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
