"""Multi-process sharded simulation cluster.

One process means one GIL, so compute-bound simulation throughput
flatlines however many threads the :mod:`repro.serve` service runs.
:mod:`repro.cluster` executes on worker *processes* behind the same
admission shell, fair queue and worker loop:

* :class:`~repro.cluster.service.ClusterService` *is* the thread service
  (:class:`~repro.serve.client.ServiceClient`) with shard executors: its
  worker slots — ``worker_threads`` per shard — pull the next job from the
  parent's one queue, send it to their shard and wait for the reply, so an
  idle shard takes the next job;
* each shard is a forked process that only executes
  (:mod:`~repro.cluster.worker`: run the backend, write back, reply),
  speaking the length-prefixed message protocol of
  :mod:`~repro.cluster.protocol`; the parent coalesces, probes and counts
  every job;
* a :class:`~repro.cluster.supervisor.Supervisor` heartbeats every shard,
  restarts crashed or hung workers with capped exponential backoff, and
  resends what their slots wait on to the replacement;
* an optional :class:`~repro.cluster.journal.JobJournal` makes the backlog
  durable: a restarted daemon resubmits unfinished jobs and serves
  completed ones without re-execution.

:class:`~repro.cluster.service.ClusterConfig` is the cluster's one config
(the supervisor's health fields included).  Being a ``ServiceClient``, the
cluster has its whole client surface, so ``Simulator(service=cluster)``
works unchanged; ``repro serve --shards N`` and ``repro batch … --jobs N``
run on it.  :class:`~repro.cluster.router.ShardRouter` is kept for the
benchmark only; nothing here routes by hash.
"""

from .journal import JobJournal, JobJournalError
from .protocol import MAX_FRAME_BYTES, MessageChannel, ProtocolError, channel_pair
from .router import ShardRouter
from .service import ClusterConfig, ClusterService
from .supervisor import ShardFailedError, ShardHandle

__all__ = [
    "JobJournal",
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
]
