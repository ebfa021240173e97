"""Hash partitioning of jobs across shards.

The cluster routes every job by its stable content hash
(:meth:`~repro.runtime.job.SimJob.job_hash`), so

* identical jobs always land on the same shard (the parent coalesces them
  before routing; a shard never sees a duplicate in flight);
* routing is deterministic across processes and restarts — a requeued job
  goes back to (the restarted incarnation of) its original shard, and a
  resumed journal replays onto the same partitioning.

The partition function is the leading 64 bits of the job hash modulo the
shard count.  The job hash is SHA-256, already uniformly distributed, so
no extra mixing is needed.  The partition is static: in a batch of jobs of
unequal cost, one shard can still be busy after another went idle.
"""

from __future__ import annotations

__all__ = ["ShardRouter"]


class ShardRouter:
    """Deterministic ``job_hash -> shard index`` partitioning."""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards

    def shard_for(self, job_hash: str) -> int:
        """The shard index owning ``job_hash`` (stable across processes)."""
        return int(job_hash[:16], 16) % self.num_shards

    def partition(self, job_hashes) -> dict:
        """Group ``job_hashes`` by owning shard (reporting convenience)."""
        groups: dict = {index: [] for index in range(self.num_shards)}
        for job_hash in job_hashes:
            groups[self.shard_for(job_hash)].append(job_hash)
        return groups
