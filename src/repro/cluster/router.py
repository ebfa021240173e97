"""Hash partitioning of jobs across shards — for the benchmark only.

The cluster does not route: its worker slots pull the next job from the
parent's one queue (:mod:`repro.cluster.service`).  Nothing under ``src/``
calls this module.  It stays because ``bench/workloads.py`` and
``bench/tests/test_harness.py`` partition ``cluster_unique``'s operand
seeds with it (and report ``cluster.shard_imbalance`` from it); deleting
it, with that metric, belongs to a change of the benchmark.

The partition function is the leading 64 bits of the job hash
(:meth:`~repro.runtime.job.SimJob.job_hash`, SHA-256, already uniformly
distributed) modulo the shard count, so it is deterministic across
processes.
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
