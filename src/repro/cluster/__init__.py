"""Multi-process sharded simulation cluster.

The :mod:`repro.serve` service coalesces, caches and fair-queues — but one
process means one GIL, and compute-bound simulation throughput flatlines
however many threads it runs.  :mod:`repro.cluster` executes on worker
*processes* behind the same admission core:

* :class:`~repro.cluster.router.ShardRouter` hash-partitions jobs by their
  content hash, so the same job always lands on the same shard;
* each shard is a forked process that only executes
  (:mod:`~repro.cluster.worker`: run the backend, write back, reply),
  speaking the length-prefixed message protocol of
  :mod:`~repro.cluster.protocol`; the parent coalesces, probes and counts
  every job, so a shard accepts every job it is dispatched;
* a :class:`~repro.cluster.supervisor.Supervisor` heartbeats every shard,
  restarts crashed or hung workers with capped exponential backoff, and
  requeues their in-flight jobs onto the replacement;
* an optional :class:`~repro.cluster.journal.JobJournal` makes the backlog
  durable: a restarted daemon resubmits unfinished jobs and serves
  completed ones without re-execution.

:class:`~repro.cluster.service.ClusterService` is the front door and
:class:`~repro.cluster.service.ClusterConfig` its one config (the
supervisor's health fields included); it is API-compatible with
:class:`~repro.serve.client.ServiceClient`, so ``Simulator(service=cluster)``
works unchanged, and its lifecycle edges leave through the same emit point,
:meth:`~repro.runtime.admission.AdmissionCore.announce`.  ``repro serve
--shards N`` exposes it from the CLI, and ``repro batch … --jobs N`` runs on
it.
"""

from .journal import (
    JOB_JOURNAL_FORMAT,
    JobJournal,
    JobJournalContents,
    JobJournalError,
)
from .protocol import MAX_FRAME_BYTES, MessageChannel, ProtocolError, channel_pair
from .router import ShardRouter
from .service import ClusterConfig, ClusterService
from .supervisor import ShardFailedError, ShardHandle, Supervisor

__all__ = [
    "JOB_JOURNAL_FORMAT",
    "JobJournal",
    "JobJournalContents",
    "JobJournalError",
    "MAX_FRAME_BYTES",
    "MessageChannel",
    "ProtocolError",
    "channel_pair",
    "ShardRouter",
    "ClusterConfig",
    "ClusterService",
    "ShardFailedError",
    "ShardHandle",
    "Supervisor",
]
