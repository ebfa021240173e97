"""Tests for the N-D affine address generation unit (paper §III-B, Fig. 4).

The model evaluates the loop nest in closed form (``address_batch`` /
``address_matrix``); every sequence here is checked against the literal
values of the paper or against the multiplying reference walk.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AddressGenerationUnit,
    SpatialAddressGenerator,
    TemporalAddressGenerator,
    reference_address_sequence,
    reference_temporal_addresses,
)


def whole_stream(generator):
    """Every temporal address of ``generator``, in step order."""
    return generator.address_batch(0, generator.total_iterations).tolist()


def bundles(agu, active_channels=0):
    """Every bundle of ``agu`` as a tuple of channel addresses."""
    matrix = agu.address_matrix(0, agu.total_bundles, active_channels)
    return [tuple(row) for row in matrix.tolist()]


class TestTemporalAGU:
    def test_single_dimension_sequence(self):
        agu = TemporalAddressGenerator(bounds=[4], strides=[8], base_address=100)
        assert whole_stream(agu) == [100, 108, 116, 124]

    def test_zero_stride_dimension_repeats(self):
        agu = TemporalAddressGenerator(bounds=[2, 3], strides=[4, 0])
        assert whole_stream(agu) == [0, 4, 0, 4, 0, 4]

    def test_total_iterations(self):
        agu = TemporalAddressGenerator(bounds=[2, 3, 4], strides=[1, 10, 100])
        assert agu.total_iterations == 24

    @pytest.mark.parametrize(
        "bounds,strides",
        [([], []), ([2], [1, 2]), ([0], [1]), ([-1], [1])],
    )
    def test_invalid_configuration_rejected(self, bounds, strides):
        with pytest.raises(ValueError):
            TemporalAddressGenerator(bounds=bounds, strides=strides)


class TestSpatialAGU:
    def test_one_dimensional_offsets(self):
        spatial = SpatialAddressGenerator(bounds=[4], strides=[8])
        assert spatial.offsets == (0, 8, 16, 24)

    def test_two_dimensional_offsets_innermost_first(self):
        spatial = SpatialAddressGenerator(bounds=[2, 3], strides=[1, 10])
        assert spatial.offsets == (0, 1, 10, 11, 20, 21)

    def test_expand_adds_temporal_address(self):
        agu = AddressGenerationUnit(
            temporal_bounds=[1],
            temporal_strides=[0],
            spatial_bounds=[2],
            spatial_strides=[4],
            base_address=100,
        )
        assert bundles(agu) == [(100, 104)]

    def test_expand_with_reduced_channel_count(self):
        agu = AddressGenerationUnit(
            temporal_bounds=[1],
            temporal_strides=[0],
            spatial_bounds=[4],
            spatial_strides=[8],
        )
        assert bundles(agu, active_channels=2) == [(0, 8)]
        assert bundles(agu, active_channels=4) == [(0, 8, 16, 24)]
        assert bundles(agu, active_channels=0) == [(0, 8, 16, 24)]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SpatialAddressGenerator(bounds=[], strides=[])
        with pytest.raises(ValueError):
            SpatialAddressGenerator(bounds=[2], strides=[1, 2])


class TestFigure4Example:
    """The exact example of Fig. 4: 4x4x4 GeMM on a 2x2x2 PE array."""

    def make_agu(self):
        # Dt=3: Bt=[2,2,2], St=[4,0,8]; Ds=2: Bs=[2,2], Ss=[1,2].
        return AddressGenerationUnit(
            temporal_bounds=[2, 2, 2],
            temporal_strides=[4, 0, 8],
            spatial_bounds=[2, 2],
            spatial_strides=[1, 2],
            base_address=0,
        )

    def test_temporal_addresses_match_figure(self):
        agu = self.make_agu()
        assert whole_stream(agu.temporal) == [0, 4, 0, 4, 8, 12, 8, 12]

    def test_spatial_addresses_match_figure(self):
        agu = self.make_agu()
        # Figure 4 (c): per clock cycle the four spatial addresses SA0..SA3.
        expected = [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        ]
        assert bundles(agu) == expected


class TestAGUProperties:
    @given(
        data=st.data(),
        base=st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_dual_counter_matches_multiplication_reference(self, data, base):
        """The closed form yields what the hardware's dual counters step
        through: base + Σ stride*index, index by index."""
        dims = data.draw(st.integers(min_value=1, max_value=4))
        bounds = data.draw(
            st.lists(st.integers(min_value=1, max_value=5), min_size=dims, max_size=dims)
        )
        strides = data.draw(
            st.lists(st.integers(min_value=0, max_value=256), min_size=dims, max_size=dims)
        )
        agu = TemporalAddressGenerator(bounds=bounds, strides=strides, base_address=base)
        assert whole_stream(agu) == reference_temporal_addresses(bounds, strides, base)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_full_agu_matches_reference_sequence(self, data):
        t_dims = data.draw(st.integers(min_value=1, max_value=3))
        s_dims = data.draw(st.integers(min_value=1, max_value=2))
        t_bounds = data.draw(
            st.lists(st.integers(min_value=1, max_value=4), min_size=t_dims, max_size=t_dims)
        )
        t_strides = data.draw(
            st.lists(st.integers(min_value=0, max_value=64), min_size=t_dims, max_size=t_dims)
        )
        s_bounds = data.draw(
            st.lists(st.integers(min_value=1, max_value=4), min_size=s_dims, max_size=s_dims)
        )
        s_strides = data.draw(
            st.lists(st.integers(min_value=0, max_value=64), min_size=s_dims, max_size=s_dims)
        )
        agu = AddressGenerationUnit(
            temporal_bounds=t_bounds,
            temporal_strides=t_strides,
            spatial_bounds=s_bounds,
            spatial_strides=s_strides,
        )
        expected = reference_address_sequence(
            t_bounds, t_strides, s_bounds, s_strides
        )
        assert bundles(agu) == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_window_matches_the_reference(self, data):
        """A window is evaluated as whole passes through its inner loops,
        however it falls across them, in int32: its sums may wrap there,
        the addresses do not."""
        dims = data.draw(st.integers(min_value=1, max_value=5))
        bounds = data.draw(
            st.lists(st.integers(min_value=1, max_value=5), min_size=dims, max_size=dims)
        )
        strides = data.draw(
            st.lists(st.integers(min_value=-64, max_value=256), min_size=dims, max_size=dims)
        )
        base = 1 << 12
        agu = AddressGenerationUnit(bounds, strides, (2,), (8,), base_address=base)
        expected = reference_address_sequence(bounds, strides, (2,), (8,), base)
        start = data.draw(st.integers(min_value=0, max_value=len(expected)))
        count = data.draw(st.integers(min_value=0, max_value=len(expected) - start))
        window = agu.address_matrix(start, count, 2)
        assert window.dtype == np.int32
        assert [tuple(row) for row in window.tolist()] == expected[start : start + count]
        temporal = agu.temporal.address_batch(start, count).tolist()
        assert temporal == [row[0] for row in expected[start : start + count]]

    @given(
        bounds=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_number_of_bundles_equals_product_of_bounds(self, bounds):
        agu = AddressGenerationUnit(
            temporal_bounds=bounds,
            temporal_strides=[1] * len(bounds),
            spatial_bounds=[2],
            spatial_strides=[1],
        )
        assert agu.total_bundles == math.prod(bounds)
        assert len(bundles(agu)) == agu.total_bundles


class TestBatchEvaluation:
    """Any window of the closed form equals the stepped reference walk."""

    CONFIGS = [
        ((4,), (8,), 0),
        ((3, 5), (16, 64), 128),
        ((2, 3, 4), (8, 0, 512), 32768),
        ((8, 8, 8), (64, 0, 512), 0),
    ]

    def test_address_batch_matches_stepping(self):
        for bounds, strides, base in self.CONFIGS:
            stepped = reference_temporal_addresses(bounds, strides, base)
            generator = TemporalAddressGenerator(bounds, strides, base)
            total = len(stepped)
            for start in (0, 1, 2, total - 1):
                window = generator.address_batch(start, total - start)
                assert window.tolist() == stepped[start:]

    def test_address_batch_window_bounds(self):
        generator = TemporalAddressGenerator((2, 2), (1, 2))
        with pytest.raises(ValueError):
            generator.address_batch(0, 5)
        with pytest.raises(ValueError):
            generator.address_batch(-1, 1)

    def test_address_matrix_matches_bundles(self):
        unit = AddressGenerationUnit(
            temporal_bounds=(3, 4),
            temporal_strides=(64, 512),
            spatial_bounds=(8,),
            spatial_strides=(8,),
            base_address=1024,
        )
        expected = reference_address_sequence((3, 4), (64, 512), (8,), (8,), 1024)
        assert bundles(unit, 8) == expected
        window = unit.address_matrix(5, 4, 8)
        assert [tuple(row) for row in window.tolist()] == expected[5:9]
