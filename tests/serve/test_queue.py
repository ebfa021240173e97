"""Unit tests of the fair bounded admission queue."""

import pytest

from repro.serve import FairQueue, QueueFullError


def drain_order(queue):
    return [item for item, _client, _priority in queue.drain()]


class TestOrdering:
    def test_fifo_within_one_client(self):
        queue = FairQueue(max_backlog=8)
        for item in ("a1", "a2", "a3"):
            queue.push(item, client="a")
        assert drain_order(queue) == ["a1", "a2", "a3"]

    def test_round_robin_across_clients(self):
        queue = FairQueue(max_backlog=8)
        queue.push("a1", client="a")
        queue.push("a2", client="a")
        queue.push("a3", client="a")
        queue.push("b1", client="b")
        # One flooding client cannot starve the other: pops alternate.
        assert drain_order(queue) == ["a1", "b1", "a2", "a3"]

    def test_round_robin_three_ways(self):
        queue = FairQueue(max_backlog=16)
        for index in range(2):
            for client in ("a", "b", "c"):
                queue.push(f"{client}{index}", client=client)
        assert drain_order(queue) == ["a0", "b0", "c0", "a1", "b1", "c1"]

    def test_priority_beats_fairness(self):
        queue = FairQueue(max_backlog=8)
        queue.push("slow", client="a", priority=5)
        queue.push("fast", client="a", priority=0)
        queue.push("mid", client="b", priority=3)
        assert drain_order(queue) == ["fast", "mid", "slow"]

    def test_pop_reports_client_and_priority(self):
        queue = FairQueue(max_backlog=4)
        queue.push("x", client="alice", priority=2)
        assert queue.pop() == ("x", "alice", 2)
        assert queue.pop() is None


class TestBounds:
    def test_service_wide_bound(self):
        queue = FairQueue(max_backlog=2)
        queue.push("a", client="a")
        queue.push("b", client="b")
        with pytest.raises(QueueFullError) as excinfo:
            queue.push("c", client="c")
        error = excinfo.value
        assert (error.backlog, error.limit) == (2, 2)
        assert error.client == "c"
        assert "service backlog is full (2/2)" in str(error)

    def test_pop_frees_capacity(self):
        queue = FairQueue(max_backlog=1)
        queue.push("a", client="a")
        queue.pop()
        queue.push("b", client="a")  # no raise
        assert len(queue) == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FairQueue(max_backlog=0)
