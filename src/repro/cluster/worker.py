"""The shard worker process: a bare executor behind a socket.

Each shard is a forked child process running :func:`shard_worker_main`.
The parent admitted, coalesced, probed and counted every job it
dispatches, so a shard only executes: a ``job`` frame goes to a pool of
``worker_threads`` threads that runs the backend, writes the outcome back
to the shared result cache and sends the ``result`` (or ``error``) frame.
No cache probe, no coalescing, no queue and no counters live here; the
process boundary buys what threads cannot — a private GIL, so N shards run
N simulations truly in parallel.

The worker's main thread is a plain receive loop on the length-prefixed
:class:`~repro.cluster.protocol.MessageChannel`, so it keeps answering
pings while simulations run:

* ``job``      → hand it to the pool;
* ``ping``     → answer ``pong`` — the supervisor's liveness signal;
* ``shutdown`` → finish what the pool holds and exit: the parent reads the
  closed channel as the shard's last word.

The parent sends a shard only what one of its slots then waits on, and
asks it to exit only once it has drained, so a shard never holds a job
nobody waits for and has nothing to cancel.  EOF on the channel means the
parent died: the worker finishes the jobs it holds and exits — an orphaned
shard must not outlive its cluster.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..runtime.backends import execute_job_with_progress
from ..runtime.cache import ResultCache, write_back
from .protocol import (
    MSG_ERROR,
    MSG_JOB,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MessageChannel,
    ProtocolError,
)

__all__ = ["shard_worker_main"]


def _pickle_safe(error: BaseException) -> Optional[BaseException]:
    """Return ``error`` if it survives a pickle round-trip, else ``None``.

    The original exception object is forwarded to the parent when possible
    so coalesced waiters re-raise the real type; exceptions holding
    unpicklable state degrade to the textual ``error`` field.
    """
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 — any pickle failure means "no"
        return None


def shard_worker_main(
    channel: MessageChannel,
    parent_channel: Optional[MessageChannel],
    shard_index: int,
    cache_dir: Optional[str],
    worker_threads: int,
) -> None:
    """Entry point of one shard process (started via the fork context).

    ``channel`` is the child end of the socket pair; ``parent_channel`` is
    the parent's end, inherited by the fork and closed here first so the
    parent's death surfaces as EOF on ``channel``.
    """
    if parent_channel is not None:
        # Inherited duplicate of the parent's end: plain fd close only — a
        # shutdown() here would sever the connection the parent still uses.
        parent_channel.close(shutdown=False)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    pool = ThreadPoolExecutor(worker_threads, f"repro-shard-{shard_index}")

    def send(message: dict) -> None:
        # A dead parent is terminal for the shard; the enclosing loop exits
        # on the next recv EOF, so a failed send is safe to swallow.
        try:
            channel.send(message)
        except (OSError, ValueError):
            pass

    def execute(seq: int, key: str, job) -> None:
        # The write-back precedes the result frame: by the time the parent
        # retires the entry, a duplicate submission finds it in the cache.
        reply = {"seq": seq, "key": key, "shard": shard_index}
        try:
            outcome = execute_job_with_progress(job)
        except Exception as error:  # noqa: BLE001 — the waiters must hear it
            send(
                {
                    **reply,
                    "kind": MSG_ERROR,
                    "error": f"{type(error).__name__}: {error}",
                    "exception": _pickle_safe(error),
                }
            )
            return
        write_back(cache, key, outcome)
        send({**reply, "kind": MSG_RESULT, "outcome": outcome})

    send({"kind": MSG_READY, "shard": shard_index, "pid": os.getpid()})

    try:
        while True:
            try:
                message = channel.recv()
            except (EOFError, OSError, ProtocolError):
                break  # parent gone (or stream corrupt)
            kind = message.get("kind")
            if kind == MSG_JOB:
                pool.submit(execute, message["seq"], message["key"], message["job"])
            elif kind == MSG_PING:
                send({"kind": MSG_PONG, "shard": shard_index})
            elif kind == MSG_SHUTDOWN:
                break
            # Unknown kinds are ignored: a newer parent may speak a richer
            # dialect, and dropping is safer than dying.
    finally:
        # Every result frame is sent before the channel closes.
        try:
            pool.shutdown(wait=True)
        finally:
            channel.close()
