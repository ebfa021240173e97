"""Tests for addressing modes, decode/encode and the bit-permutation remap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    AddressingMode,
    BankGeometry,
    decode_address,
    decode_address_bit_permutation,
    mode_for_group_size,
    normalize_group_size,
    permutation_spec,
    permute_word_index,
)

GEOMETRY = BankGeometry(num_banks=16, bank_width_bytes=8, bank_depth=32)


class TestBankGeometry:
    def test_capacity(self):
        assert GEOMETRY.capacity_bytes == 16 * 8 * 32
        assert GEOMETRY.total_words == 16 * 32

    def test_contains(self):
        assert GEOMETRY.contains(0)
        assert GEOMETRY.contains(GEOMETRY.capacity_bytes - 1)
        assert not GEOMETRY.contains(GEOMETRY.capacity_bytes)
        assert not GEOMETRY.contains(-1)

    @pytest.mark.parametrize("kwargs", [
        {"num_banks": 0, "bank_width_bytes": 8, "bank_depth": 32},
        {"num_banks": 16, "bank_width_bytes": 0, "bank_depth": 32},
        {"num_banks": 16, "bank_width_bytes": 8, "bank_depth": 0},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BankGeometry(**kwargs)


class TestModeClassification:
    def test_full_interleave(self):
        assert mode_for_group_size(GEOMETRY, 16) is AddressingMode.FULLY_INTERLEAVED

    def test_non_interleave(self):
        assert mode_for_group_size(GEOMETRY, 1) is AddressingMode.NON_INTERLEAVED

    def test_grouped(self):
        assert mode_for_group_size(GEOMETRY, 4) is AddressingMode.GROUPED_INTERLEAVED

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            normalize_group_size(GEOMETRY, 3)
        with pytest.raises(ValueError):
            normalize_group_size(GEOMETRY, 0)


class TestDecode:
    def test_fima_consecutive_words_round_robin(self):
        banks = [
            decode_address(word * 8, GEOMETRY, 16).bank for word in range(20)
        ]
        assert banks[:16] == list(range(16))
        assert banks[16:20] == [0, 1, 2, 3]

    def test_nima_fills_one_bank_first(self):
        locations = [decode_address(word * 8, GEOMETRY, 1) for word in range(40)]
        assert all(loc.bank == 0 for loc in locations[:32])
        assert all(loc.bank == 1 for loc in locations[32:40])
        assert [loc.line for loc in locations[:4]] == [0, 1, 2, 3]

    def test_gima_interleaves_within_group(self):
        # Group of 4 banks: first 4*depth words stay in banks 0-3.
        locations = [decode_address(word * 8, GEOMETRY, 4) for word in range(4 * 32 + 4)]
        first_group = locations[: 4 * 32]
        assert {loc.bank for loc in first_group} == {0, 1, 2, 3}
        assert [loc.bank for loc in locations[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]
        # The next group starts at bank 4.
        assert locations[4 * 32].bank == 4

    def test_byte_offset(self):
        loc = decode_address(13, GEOMETRY, 16)
        assert loc.byte_offset == 5
        assert loc.bank == 1

    def test_out_of_range_address_raises(self):
        with pytest.raises(ValueError):
            decode_address(GEOMETRY.capacity_bytes, GEOMETRY, 16)
        with pytest.raises(ValueError):
            decode_address(-8, GEOMETRY, 16)


group_sizes = st.sampled_from([1, 2, 4, 8, 16])
addresses = st.integers(min_value=0, max_value=GEOMETRY.capacity_bytes - 1)


class TestDecodeProperties:

    @given(address=addresses, group_size=group_sizes)
    @settings(max_examples=200, deadline=None)
    def test_decode_stays_in_range(self, address, group_size):
        location = decode_address(address, GEOMETRY, group_size)
        assert 0 <= location.bank < GEOMETRY.num_banks
        assert 0 <= location.line < GEOMETRY.bank_depth
        assert 0 <= location.byte_offset < GEOMETRY.bank_width_bytes

    @given(group_size=group_sizes)
    @settings(max_examples=10, deadline=None)
    def test_decode_is_a_bijection_over_words(self, group_size):
        seen = set()
        for word in range(GEOMETRY.total_words):
            loc = decode_address(word * 8, GEOMETRY, group_size)
            seen.add((loc.bank, loc.line))
        assert len(seen) == GEOMETRY.total_words

    @given(address=addresses, group_size=group_sizes)
    @settings(max_examples=200, deadline=None)
    def test_bit_permutation_matches_arithmetic_decode(self, address, group_size):
        """Hardware remapper (Fig. 5(e)) equals the arithmetic formulation."""
        arithmetic = decode_address(address, GEOMETRY, group_size)
        permuted = decode_address_bit_permutation(address, GEOMETRY, group_size)
        assert arithmetic == permuted


class TestPermutationSpec:
    def test_fima_is_identity(self):
        spec = permutation_spec(GEOMETRY, 16)
        assert spec == list(range(len(spec)))
        assert permute_word_index(0b101101, spec) == 0b101101

    def test_spec_is_a_permutation(self):
        for group_size in (1, 2, 4, 8, 16):
            spec = permutation_spec(GEOMETRY, group_size)
            assert sorted(spec) == list(range(len(spec)))

    def test_non_power_of_two_rejected(self):
        geometry = BankGeometry(num_banks=12, bank_width_bytes=8, bank_depth=32)
        with pytest.raises(ValueError):
            permutation_spec(geometry, 12)


class TestBatchDecode:
    """decode_address_batch must equal decode_address element-wise."""

    def test_matches_scalar_decode_for_every_mode(self):
        import numpy as np

        from repro.memory.addressing import decode_address_batch

        geometry = BankGeometry(num_banks=64, bank_width_bytes=8, bank_depth=256)
        addresses = np.arange(0, geometry.capacity_bytes, 37, dtype=np.int64)
        for group_size in (64, 16, 4, 1):
            banks, lines, offsets = decode_address_batch(
                addresses, geometry, group_size
            )
            for i in (0, 1, 17, len(addresses) // 2, len(addresses) - 1):
                scalar = decode_address(int(addresses[i]), geometry, group_size)
                assert (
                    int(banks[i]),
                    int(lines[i]),
                    int(offsets[i]),
                ) == (scalar.bank, scalar.line, scalar.byte_offset)

    def test_out_of_range_rejected(self):
        import numpy as np

        from repro.memory.addressing import decode_address_batch

        geometry = BankGeometry(num_banks=4, bank_width_bytes=8, bank_depth=8)
        with pytest.raises(ValueError):
            decode_address_batch(
                np.array([geometry.capacity_bytes]), geometry, 4
            )
        with pytest.raises(ValueError):
            decode_address_batch(np.array([-1]), geometry, 4)
