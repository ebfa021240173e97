"""Length-prefixed message framing between the cluster and its shards.

The cluster parent and each shard worker process talk over a socket pair
using the smallest protocol that does the job: every message is one pickle
payload prefixed by a 4-byte big-endian length.  Framing and transport are
deliberately separate from meaning — :class:`MessageChannel` moves ``dict``
messages; what the dicts say is defined by the module-level ``MSG_*``
constants and interpreted by :mod:`repro.cluster.worker` (shard side) and
:mod:`repro.cluster.supervisor` (parent side).

Message kinds, parent → shard:

* ``{"kind": "job", "seq": int, "key": str, "job": SimJob}`` — execute one
  simulation; ``seq`` is the dispatch id the answer must echo.
* ``{"kind": "ping"}`` — health check; answered with ``pong``.
* ``{"kind": "shutdown"}`` — finish the jobs held and exit; the closed
  channel is the acknowledgement.

Shard → parent:

* ``{"kind": "ready", "shard": int, "pid": int}`` — handshake after start.
* ``{"kind": "result", "seq": int, "key": str, "outcome": SimOutcome}``
* ``{"kind": "error", "seq": int, "key": str, "error": str,
  "exception": BaseException | None}`` — the exception rides along when it
  pickles, so coalesced waiters re-raise the original error type.
* ``{"kind": "pong", "shard": int}`` — health answer: liveness
  only (the parent counts everything itself).

A truncated stream (peer died mid-frame) surfaces as :class:`EOFError`;
frames above :data:`MAX_FRAME_BYTES` raise :class:`ProtocolError` instead
of silently attempting a multi-gigabyte allocation on a corrupt prefix, and
so does a payload that does not unpickle (garbage bytes, a class the
receiver cannot import), so a reader loop ends on it like on EOF.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Dict, Tuple

__all__ = [
    "MAX_FRAME_BYTES",
    "MSG_ERROR",
    "MSG_JOB",
    "MSG_PING",
    "MSG_PONG",
    "MSG_READY",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MessageChannel",
    "ProtocolError",
    "channel_pair",
]

#: 4-byte big-endian payload length prefix.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a corrupt prefix must not look like a 4 GiB read.
MAX_FRAME_BYTES = 256 * 1024 * 1024

MSG_JOB = "job"
MSG_PING = "ping"
MSG_SHUTDOWN = "shutdown"
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_PONG = "pong"


class ProtocolError(RuntimeError):
    """The byte stream violated the framing contract."""


def pack_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its 4-byte big-endian length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes; :class:`EOFError` on a closed peer."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError(
                f"peer closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class MessageChannel:
    """Bidirectional pickle messages over one socket, length-prefixed.

    ``send`` is thread-safe (the cluster parent sends from the submit path
    and the supervisor concurrently; the shard sends from its executor
    threads and its receive loop).  ``recv`` is single-consumer: each
    side dedicates one reader loop to the channel.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, message: Dict[str, Any]) -> None:
        """Frame and send one message (raises ``OSError`` on a dead peer)."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        frame = pack_frame(payload)
        with self._send_lock:
            self._sock.sendall(frame)

    def recv(self) -> Dict[str, Any]:
        """Receive one message; :class:`EOFError` when the peer is gone."""
        header = _recv_exact(self._sock, _HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"incoming frame claims {length} bytes (> MAX_FRAME_BYTES); "
                f"stream is corrupt"
            )
        payload = _recv_exact(self._sock, length)
        try:
            message = pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 — any decode failure is corruption
            raise ProtocolError(
                f"undecodable frame: {type(error).__name__}: {error}"
            ) from error
        if not isinstance(message, dict) or "kind" not in message:
            raise ProtocolError(f"malformed message: {type(message).__name__}")
        return message

    # ------------------------------------------------------------------
    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, shutdown: bool = True) -> None:
        """Close this end of the channel.

        ``shutdown=True`` (the default) tears the *connection* down with
        ``SHUT_RDWR`` first, which reliably unblocks a reader thread parked
        in :meth:`recv`.  Pass ``shutdown=False`` when dropping a
        fork-inherited duplicate of the *other* process's end: shutdown
        acts on the shared connection (not just this process's file
        descriptor), so shutting down a duplicate would sever the link the
        owning process is still using.
        """
        if not self._closed:
            self._closed = True
            if shutdown:
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._sock.close()


def channel_pair() -> Tuple[MessageChannel, MessageChannel]:
    """A connected channel pair (parent end, child end) over a socketpair.

    Used with fork-started worker processes: the child inherits both ends,
    closes the parent's, and keeps its own — exactly like a pipe, but with
    a real socket so the framing layer is identical in tests and in the
    live cluster.
    """
    parent_sock, child_sock = socket.socketpair()
    return MessageChannel(parent_sock), MessageChannel(child_sock)
