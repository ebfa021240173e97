"""Shard process management: handles, health checks, restart with backoff.

Two pieces live here:

* :class:`ShardHandle` — the parent-side view of one worker process: the
  forked ``multiprocessing.Process``, the parent end of its message
  channel, and a reader thread that turns incoming frames into callbacks.
  A handle is immutable once failed; restarts build a *new* handle for the
  same shard index.
* :class:`Supervisor` — the health loop.  It pings every shard on a fixed
  cadence, declares a shard dead when its process has exited or its last
  sign of life is older than the heartbeat timeout, kills and restarts it
  with capped exponential backoff, and asks the cluster to requeue the
  dead incarnation's in-flight jobs onto the new one.  A shard that keeps
  dying without ever doing useful work again (no result, no pong) is
  eventually declared failed for good, and its pending jobs get a
  :class:`ShardFailedError` instead of waiting forever.

The division of labour with :class:`~repro.cluster.service.ClusterService`:
the service owns dispatch, coalescing, the journal and the futures; the
supervisor owns *process lifecycle* and never touches job state directly —
it only calls back into the service's ``_redispatch_shard``/``_fail_shard``
hooks, and lists the shards it gave up on in ``Supervisor.given_up``.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

from .protocol import (
    MSG_JOB,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MessageChannel,
    ProtocolError,
    channel_pair,
)
from .worker import shard_worker_main

if TYPE_CHECKING:
    from .service import ClusterConfig

__all__ = ["ShardFailedError", "ShardHandle", "Supervisor"]


class ShardFailedError(RuntimeError):
    """A shard exhausted its restart budget; its jobs cannot complete."""


class ShardHandle:
    """Parent-side endpoint of one worker process incarnation."""

    def __init__(
        self,
        index: int,
        *,
        cache_dir: Optional[str],
        worker_threads: int,
        on_message: Callable[["ShardHandle", dict], None],
        on_disconnect: Callable[["ShardHandle"], None],
    ) -> None:
        self.index = index
        self._cache_dir = cache_dir
        self._worker_threads = worker_threads
        self._on_message = on_message
        self._on_disconnect = on_disconnect
        self.process = None
        self.channel: Optional[MessageChannel] = None
        self._reader: Optional[threading.Thread] = None
        #: Monotonic time of the last frame received from this incarnation.
        self.last_seen = 0.0
        #: True once the incarnation produced a result or pong (i.e. it is
        #: genuinely serving, not just surviving the ready handshake).
        self.productive = False
        #: Set when the handle is intentionally shut down (no restart).
        self.closing = False
        #: Set by the reader thread on EOF.  Definitive: once the channel
        #: is gone the incarnation can never deliver another result, even
        #: if ``process.is_alive()`` still reports True for a moment while
        #: the dying child waits to be reaped.
        self.disconnected = False
        #: Set once the incarnation is considered dead.
        self.failed = False

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float) -> None:
        """Fork the worker, wait for its ``ready`` frame, start the reader."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        parent_channel, child_channel = channel_pair()
        self.channel = parent_channel
        self.process = context.Process(
            target=shard_worker_main,
            args=(
                child_channel,
                parent_channel,
                self.index,
                self._cache_dir,
                self._worker_threads,
            ),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        self.process.start()
        # The child owns its end now; drop the parent's duplicate fd (no
        # shutdown — that would sever the child's live connection) so EOF
        # propagates when the child exits.
        child_channel.close(shutdown=False)
        parent_channel.settimeout(ready_timeout)
        try:
            message = parent_channel.recv()
        except (EOFError, OSError, ProtocolError) as error:
            self.kill()
            raise ShardFailedError(
                f"shard {self.index} never answered the ready handshake: {error}"
            ) from error
        if message.get("kind") != MSG_READY:
            self.kill()
            raise ShardFailedError(
                f"shard {self.index} spoke {message.get('kind')!r} before ready"
            )
        parent_channel.settimeout(None)
        self.last_seen = time.monotonic()
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"repro-shard-{self.index}-reader", daemon=True
        )
        self._reader.start()

    def _reader_loop(self) -> None:
        assert self.channel is not None
        while True:
            try:
                message = self.channel.recv()
            except (EOFError, OSError, ProtocolError):
                break
            self.last_seen = time.monotonic()
            if message.get("kind") in (MSG_RESULT, MSG_PONG):
                self.productive = True
            try:
                self._on_message(self, message)
            except Exception:  # noqa: BLE001 — observers must not kill the reader
                pass
        self.disconnected = True
        self._on_disconnect(self)

    # ------------------------------------------------------------------
    def send(self, message: dict) -> bool:
        """Best-effort send; ``False`` when the incarnation is unreachable.

        A ``False`` (or a silently lost frame on a dying socket) is always
        recovered by the supervisor: the shard's death redispatches every
        pending entry, so no job is lost to a failed send.
        """
        if self.failed or self.channel is None:
            return False
        try:
            self.channel.send(message)
            return True
        except (OSError, ValueError):
            return False

    def dispatch(self, seq: int, key: str, job) -> bool:
        return self.send({"kind": MSG_JOB, "seq": seq, "key": key, "job": job})

    def ping(self) -> bool:
        return self.send({"kind": MSG_PING})

    def request_shutdown(self) -> bool:
        self.closing = True
        return self.send({"kind": MSG_SHUTDOWN})

    # ------------------------------------------------------------------
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        """Terminate the worker process immediately (SIGKILL)."""
        self.failed = True
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.channel is not None:
            self.channel.close()

    def join(self, timeout: float) -> None:
        """Wait for the process to exit (killing it after ``timeout``), then
        for the reader to deliver every frame it sent; close the channel."""
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout)
        if self._reader is not None:
            self._reader.join(timeout)
        if self.channel is not None:
            self.channel.close()


class Supervisor:
    """Health-checks shards, restarts the dead, requeues their work.

    The supervisor thread wakes every ``heartbeat_interval`` seconds and,
    per shard: pings it, checks the process is alive, and checks the last
    message is younger than ``heartbeat_timeout``.  A failed check kills
    the incarnation, waits the capped exponential backoff, starts a fresh
    one, and hands its predecessor's pending jobs back to the cluster for
    redispatch.  ``notify_disconnect`` lets reader threads short-circuit
    the cadence: an EOF triggers recovery on the next loop tick without
    waiting out the interval.  Its tunables are the health fields of the
    cluster's :class:`~repro.cluster.service.ClusterConfig`.
    """

    def __init__(
        self,
        config: "ClusterConfig",
        *,
        get_handle: Callable[[int], ShardHandle],
        replace_handle: Callable[[int], None],
        on_shard_lost: Callable[[int], None],
        on_shard_failed: Callable[[int, str], None],
    ) -> None:
        self.config = config
        self._get_handle = get_handle
        self._replace_handle = replace_handle
        self._on_shard_lost = on_shard_lost
        self._on_shard_failed = on_shard_failed
        self._failures: Dict[int, int] = {}
        #: Total successful shard restarts performed so far.
        self.restarts = 0
        #: Shards declared failed for good -> why; never restarted again.
        self.given_up: Dict[int, str] = {}
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def notify_disconnect(self, handle: ShardHandle) -> None:
        """Reader-thread EOF hook: trigger an immediate health pass."""
        if not handle.closing:
            self._wake.set()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.config.heartbeat_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            for index in range(self.config.shards):
                if index in self.given_up:
                    continue
                try:
                    self._check_shard(index)
                except Exception:  # noqa: BLE001 — supervision must survive
                    pass

    def _check_shard(self, index: int) -> None:
        handle = self._get_handle(index)
        if handle.closing:
            return
        now = time.monotonic()
        hung = (now - handle.last_seen) > self.config.heartbeat_timeout
        dead = handle.failed or handle.disconnected or not handle.alive()
        if not dead and not hung:
            handle.ping()
            return
        if handle.disconnected:
            reason = "disconnected"
        elif hung and not dead:
            reason = "hung"
        else:
            reason = "exited"
        self._recover(index, handle, reason=reason)

    def _recover(self, index: int, handle: ShardHandle, reason: str) -> None:
        if self._stop.is_set():
            return
        # A productive predecessor resets the failure streak: crashing
        # after real work is an incident, not a crash loop.
        if handle.productive:
            self._failures[index] = 0
        handle.kill()
        failures = self._failures.get(index, 0)
        if failures >= self.config.max_restarts:
            self.given_up[index] = (
                f"shard {index} failed {failures} consecutive restarts "
                f"(last reason: {reason})"
            )
            self._on_shard_failed(index, self.given_up[index])
            return
        self._failures[index] = failures + 1
        delay = min(
            self.config.backoff_cap, self.config.backoff_base * (2.0 ** failures)
        )
        if delay > 0 and self._stop.wait(delay):
            return
        try:
            # replace_handle forks, handshakes and installs the new
            # incarnation (raising on any of the three), so slots and
            # redispatch only ever see started shards.
            self._replace_handle(index)
        except Exception:  # noqa: BLE001 — a failed start is one more failure
            self._wake.set()
            return
        self.restarts += 1
        # The cluster redispatches the dead incarnation's pending jobs onto
        # the freshly installed replacement.
        self._on_shard_lost(index)
