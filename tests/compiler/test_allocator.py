"""Tests for scratchpad allocation and addressing-mode selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import AllocationError, MemoryAllocator
from repro.core import MemoryDesign

MEMORY = MemoryDesign(
    num_banks=64,
    bank_width_bits=64,
    capacity_bytes=128 * 1024,
    group_size_options=(64, 16, 1),
)


class TestFlatAllocation:
    def test_sequential_non_overlapping(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=False)
        a = allocator.allocate("A", 1000)
        b = allocator.allocate("B", 2000)
        assert a.base_address == 0
        assert b.base_address >= a.base_address + a.size_bytes
        assert a.group_size == 64  # FIMA
        assert b.group_size == 64

    def test_alignment(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=False)
        allocator.allocate("A", 10)
        b = allocator.allocate("B", 10)
        assert b.base_address % 64 == 0

    def test_capacity_overflow_raises(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=False)
        allocator.allocate("A", 100 * 1024)
        with pytest.raises(AllocationError):
            allocator.allocate("B", 60 * 1024)

    def test_plan_preserves_order(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=False)
        plan = allocator.plan({"A": 128, "B": 128, "C": 128})
        assert plan["A"].base_address < plan["B"].base_address < plan["C"].base_address
        assert plan.total_bytes() == 3 * 128


class TestGroupedAllocation:
    def test_each_operand_gets_its_own_group(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=True)
        group_bytes = allocator.group_bytes
        assert group_bytes == 32 * 1024
        a = allocator.allocate("A", 8 * 1024)
        b = allocator.allocate("B", 8 * 1024)
        c = allocator.allocate("C", 256)
        assert a.group_size == 16
        assert {a.base_address // group_bytes, b.base_address // group_bytes,
                c.base_address // group_bytes} == {0, 1, 2}

    def test_large_region_spans_consecutive_groups(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=True)
        big = allocator.allocate("D", 60 * 1024)
        small = allocator.allocate("A", 1024)
        assert big.base_address == 0
        # The next operand starts in the first group NOT touched by "D".
        assert small.base_address >= 2 * allocator.group_bytes

    def test_fallback_shares_group_when_exhausted(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=True)
        for name in ("A", "B", "C", "D"):
            allocator.allocate(name, 4 * 1024)
        extra = allocator.allocate("E", 1024)
        # Still allocated, inside an existing group, without overflowing it.
        assert extra.base_address + extra.size_bytes <= MEMORY.capacity_bytes

    def test_unfittable_region_raises(self):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=True)
        allocator.allocate("D", 120 * 1024)
        with pytest.raises(AllocationError):
            allocator.allocate("A", 40 * 1024)

    def test_invalid_group_size_option(self):
        with pytest.raises(ValueError):
            MemoryAllocator(MEMORY, True, gima_group_size=24)

    def test_explicit_group_size(self):
        allocator = MemoryAllocator(MEMORY, True, gima_group_size=1)
        region = allocator.allocate("A", 100)
        assert region.group_size == 1  # NIMA placement


class TestAllocationInvariants:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20_000), min_size=1, max_size=6),
        switching=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_regions_never_overlap(self, sizes, switching):
        allocator = MemoryAllocator(MEMORY, use_addressing_mode_switching=switching)
        regions = []
        try:
            for index, size in enumerate(sizes):
                regions.append(allocator.allocate(f"r{index}", size))
        except AllocationError:
            pass  # running out of space is acceptable; overlap is not
        spans = sorted((r.base_address, r.base_address + r.size_bytes) for r in regions)
        for (start_a, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b
        for region in regions:
            assert region.base_address + region.size_bytes <= MEMORY.capacity_bytes
            assert region.base_address % 64 == 0
