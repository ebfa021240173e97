"""Multi-process sharded simulation cluster.

The :mod:`repro.serve` service coalesces, caches and fair-queues — but one
process means one GIL, and compute-bound simulation throughput flatlines
however many threads it runs.  :mod:`repro.cluster` shards that same
service across worker *processes*:

* :class:`~repro.cluster.router.ShardRouter` hash-partitions jobs by their
  content hash, so identical jobs land on the same shard and per-shard
  in-flight coalescing stays exactly correct;
* each shard is a forked process running a private
  :class:`~repro.serve.client.ServiceClient`
  (:mod:`~repro.cluster.worker`), speaking the length-prefixed message
  protocol of :mod:`~repro.cluster.protocol`; the parent is the only
  admission point, so a shard accepts every job it is dispatched;
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
and ``BatchRunner(service=cluster)`` work unchanged, and its lifecycle edges
leave through the same emit point,
:meth:`~repro.serve.core.AdmissionCore.announce`.  ``repro serve --shards
N`` exposes it from the CLI.
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
