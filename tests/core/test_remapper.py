"""Tests for the runtime addressing-mode switching remapper (§III-D)."""

import pytest

from repro.core import AddressRemapper
from repro.memory import AddressingMode, BankGeometry, decode_address, mode_for_group_size

GEOMETRY = BankGeometry(num_banks=16, bank_width_bytes=8, bank_depth=32)


def make_remapper(options=(16, 4, 1)):
    return AddressRemapper(GEOMETRY, options)


def selected_mode(remapper):
    """The addressing mode the remapper's selected bank-group size decodes in."""
    return mode_for_group_size(GEOMETRY, remapper.selected_group_size)


class TestSelection:
    def test_reset_mode_is_fully_interleaved(self):
        remapper = make_remapper()
        assert remapper.selected_group_size == 16
        assert selected_mode(remapper) is AddressingMode.FULLY_INTERLEAVED

    def test_select_by_group_size(self):
        remapper = make_remapper()
        remapper.select_group_size(4)
        assert selected_mode(remapper) is AddressingMode.GROUPED_INTERLEAVED
        remapper.select_group_size(1)
        assert selected_mode(remapper) is AddressingMode.NON_INTERLEAVED

    def test_select_by_index(self):
        remapper = make_remapper()
        remapper.select_index(2)
        assert remapper.selected_group_size == 1

    def test_unavailable_group_size_rejected(self):
        remapper = make_remapper(options=(16, 1))
        with pytest.raises(ValueError):
            remapper.select_group_size(4)

    def test_out_of_range_index_rejected(self):
        remapper = make_remapper()
        with pytest.raises(ValueError):
            remapper.select_index(5)

    def test_options_deduplicated_and_sorted(self):
        remapper = AddressRemapper(GEOMETRY, [1, 16, 16, 4, 4])
        assert remapper.group_size_options == (16, 4, 1)

    def test_empty_options_defaults_to_fima(self):
        remapper = AddressRemapper(GEOMETRY, [])
        assert remapper.group_size_options == (16,)

    def test_available_modes_report(self):
        remapper = make_remapper()
        modes = remapper.available_modes()
        assert modes[0] is AddressingMode.FULLY_INTERLEAVED
        assert modes[1] is AddressingMode.GROUPED_INTERLEAVED
        assert modes[2] is AddressingMode.NON_INTERLEAVED


class TestDecode:
    def test_decode_follows_selected_mode(self):
        remapper = make_remapper()
        address = 8 * 17  # word 17
        assert remapper.decode(address) == decode_address(address, GEOMETRY, 16)
        remapper.select_group_size(1)
        assert remapper.decode(address) == decode_address(address, GEOMETRY, 1)

    def test_switching_mode_changes_bank_for_same_address(self):
        """The same logical address maps to different banks per mode."""
        remapper = make_remapper()
        address = 8 * 5  # word 5
        fima_bank = remapper.decode(address).bank
        remapper.select_group_size(1)
        nima_bank = remapper.decode(address).bank
        assert fima_bank == 5
        assert nima_bank == 0
