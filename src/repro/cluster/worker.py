"""The shard worker process: one ``ServiceClient`` behind a socket.

Each shard is a forked child process running :func:`shard_worker_main`.
Inside it, a full single-process :class:`~repro.serve.client.ServiceClient`
does what it already does well — coalesce duplicate in-flight jobs, probe
the shared result cache before scheduling, execute on a small thread pool —
while the process boundary buys what threads cannot: a private GIL, so N
shards run N simulations truly in parallel.  The shard's service has no
``on_event`` listener (its lifecycle edges reach only a tracer installed in
the shard) and no backlog bound: the parent admitted every job it
dispatches, so the shard never bounces one.

The worker's main thread is a plain receive loop on the length-prefixed
:class:`~repro.cluster.protocol.MessageChannel`:

* ``job``      → submit to the service; a completion callback sends the
  ``result`` (or ``error``) frame from the service worker thread that
  settled it (outside the service's lock), so the main thread keeps
  answering pings while simulations run;
* ``ping``     → answer ``pong`` carrying the service's stats snapshot —
  the supervisor's liveness signal and the cluster's per-shard telemetry;
* ``shutdown`` → close the service (draining or not), answer ``bye``, exit.

EOF on the channel means the parent died: the worker closes without
draining and exits — an orphaned shard must not outlive its cluster.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Optional

from ..serve.client import ServiceClient, ServiceConfig
from .protocol import (
    MSG_BYE,
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
    progress_interval: int,
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

    client = ServiceClient(
        cache_dir=cache_dir,
        config=ServiceConfig(
            max_workers=worker_threads,
            # The parent admitted the job: the shard queues whatever arrives.
            max_backlog=sys.maxsize,
            progress_interval=progress_interval,
        ),
    )

    def send(message: dict) -> None:
        # A dead parent is terminal for the shard; the enclosing loop exits
        # on the next recv EOF, so a failed send is safe to swallow.
        try:
            channel.send(message)
        except (OSError, ValueError):
            pass

    def on_done(seq: int, key: str, ticket) -> None:
        error = ticket.future.exception()
        if error is None:
            send(
                {
                    "kind": MSG_RESULT,
                    "seq": seq,
                    "key": key,
                    "shard": shard_index,
                    "outcome": ticket.result(),
                }
            )
        else:
            send(
                {
                    "kind": MSG_ERROR,
                    "seq": seq,
                    "key": key,
                    "shard": shard_index,
                    "error": f"{type(error).__name__}: {error}",
                    "exception": _pickle_safe(error),
                }
            )

    send({"kind": MSG_READY, "shard": shard_index, "pid": os.getpid()})

    drain_on_exit = False
    try:
        while True:
            try:
                message = channel.recv()
            except (EOFError, OSError, ProtocolError):
                break  # parent gone (or stream corrupt): exit without drain
            kind = message.get("kind")
            if kind == MSG_JOB:
                seq, key, job = message["seq"], message["key"], message["job"]
                try:
                    ticket = client.submit(job, client_name=f"shard{shard_index}")
                except Exception as error:  # noqa: BLE001 — the waiters must hear it
                    send(
                        {
                            "kind": MSG_ERROR,
                            "seq": seq,
                            "key": key,
                            "shard": shard_index,
                            "error": f"{type(error).__name__}: {error}",
                            "exception": _pickle_safe(error),
                        }
                    )
                    continue
                ticket.add_done_callback(functools.partial(on_done, seq, key))
            elif kind == MSG_PING:
                send(
                    {
                        "kind": MSG_PONG,
                        "seq": message.get("seq", 0),
                        "shard": shard_index,
                        "snapshot": client.snapshot(),
                    }
                )
            elif kind == MSG_SHUTDOWN:
                # Close (draining or not) *before* acknowledging: results
                # of draining jobs are sent by their completion callbacks
                # during close, so ``bye`` is always the final frame.
                drain_on_exit = bool(message.get("drain", True))
                client.close(drain=drain_on_exit)
                send({"kind": MSG_BYE, "shard": shard_index})
                break
            # Unknown kinds are ignored: a newer parent may speak a richer
            # dialect, and dropping is safer than dying.
    finally:
        try:
            client.close(drain=drain_on_exit)
        finally:
            channel.close()
