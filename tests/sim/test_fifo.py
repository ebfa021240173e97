"""Unit and property tests for the bounded FIFO primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Fifo, FifoError


class TestFifoBasics:
    def test_new_fifo_is_empty(self):
        fifo = Fifo(depth=4)
        assert fifo.is_empty
        assert not fifo.is_full
        assert len(fifo) == 0

    def test_push_pop_order(self):
        fifo = Fifo(depth=3)
        fifo.push("a")
        fifo.push("b")
        fifo.push("c")
        assert fifo.pop() == "a"
        assert fifo.pop() == "b"
        assert fifo.pop() == "c"

    def test_peek_does_not_consume(self):
        """Per-cycle code reads the head as ``fifo.entries[0]``."""
        fifo = Fifo(depth=2)
        fifo.push(10)
        assert fifo.entries[0] == 10
        assert len(fifo) == 1
        assert fifo.pop() == 10

    def test_peek_optional_empty(self):
        """An empty FIFO's ``entries`` is falsy, the test per-cycle code makes."""
        fifo = Fifo(depth=2)
        assert not fifo.entries
        fifo.push(1)
        assert fifo.entries and fifo.entries[0] == 1

    def test_push_full_raises(self):
        fifo = Fifo(depth=1)
        fifo.push(1)
        assert fifo.is_full
        with pytest.raises(FifoError):
            fifo.push(2)

    def test_pop_empty_raises(self):
        fifo = Fifo(depth=1)
        with pytest.raises(FifoError):
            fifo.pop()

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            Fifo(depth=0)
        with pytest.raises(ValueError):
            Fifo(depth=-3)

    def test_clear_resets_contents_but_not_counters(self):
        fifo = Fifo(depth=2)
        fifo.push(1)
        fifo.clear()
        assert fifo.is_empty
        assert fifo.total_pushes == 1

    def test_snapshot_and_iteration(self):
        fifo = Fifo(depth=4)
        for item in (1, 2, 3):
            fifo.push(item)
        assert list(fifo.entries) == [1, 2, 3]
        assert list(fifo) == [1, 2, 3]
        assert len(fifo) == 3

    def test_max_occupancy_tracking(self):
        fifo = Fifo(depth=4)
        for item in (1, 2, 3):
            fifo.push(item)
        fifo.pop()
        fifo.push(4)
        assert fifo.max_occupancy == 3


class TestFifoProperties:
    @given(
        depth=st.integers(min_value=1, max_value=16),
        operations=st.lists(
            st.one_of(st.just("pop"), st.integers(min_value=0, max_value=1000)),
            max_size=200,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_matches_reference_model(self, depth, operations):
        """The FIFO must behave exactly like a bounded python list queue."""
        fifo = Fifo(depth=depth)
        reference = []
        for op in operations:
            if op == "pop":
                if reference:
                    assert fifo.pop() == reference.pop(0)
                else:
                    assert fifo.is_empty
            else:
                if len(reference) < depth:
                    fifo.push(op)
                    reference.append(op)
                else:
                    assert fifo.is_full
        assert list(fifo) == reference
        assert len(fifo) == len(reference)

    @given(items=st.lists(st.integers(), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_plus_free_slots_is_depth(self, items):
        fifo = Fifo(depth=len(items))
        for item in items:
            fifo.push(item)
            assert fifo.is_full == (len(fifo) == fifo.depth)
        assert fifo.max_occupancy == fifo.depth
