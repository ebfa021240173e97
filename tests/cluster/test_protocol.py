"""MessageChannel framing: round-trips, EOF, corruption, thread-safety."""

import pickle
import socket
import sys
import threading
import types

import pytest

from repro.cluster import (
    MAX_FRAME_BYTES,
    MessageChannel,
    ProtocolError,
    ShardHandle,
    channel_pair,
)
from repro.cluster.protocol import _HEADER, pack_frame


def _pickle_of_a_class_the_receiver_lacks(module_name):
    """A result frame whose outcome's class exists only while it is pickled:
    ``module_name`` is a fake module (the receiver cannot import it) or a
    real one that lacks the class (the receiver cannot find it)."""
    fake = module_name not in sys.modules
    module = types.ModuleType(module_name) if fake else sys.modules[module_name]
    vanished = type("Vanished", (), {"__module__": module_name})
    module.Vanished = vanished
    if fake:
        sys.modules[module_name] = module
    try:
        return pickle.dumps({"kind": "result", "seq": 1, "outcome": vanished()})
    finally:
        del module.Vanished
        if fake:
            del sys.modules[module_name]


UNDECODABLE = {
    "garbage": b"this is not a pickle",
    "missing module": _pickle_of_a_class_the_receiver_lacks("repro_sender_only"),
    "missing class": _pickle_of_a_class_the_receiver_lacks("repro.cluster.protocol"),
}


class TestPackFrame:
    def test_prefixes_length(self):
        frame = pack_frame(b"hello")
        (length,) = _HEADER.unpack(frame[: _HEADER.size])
        assert length == 5
        assert frame[_HEADER.size :] == b"hello"

    def test_rejects_oversized_payload(self):
        class HugeBytes(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(ProtocolError):
            pack_frame(HugeBytes())


class TestMessageChannel:
    def test_round_trip(self):
        a, b = channel_pair()
        try:
            a.send({"kind": "ping", "seq": 7})
            assert b.recv() == {"kind": "ping", "seq": 7}
            b.send({"kind": "pong", "seq": 7, "snapshot": {"queue_depth": 0}})
            assert a.recv()["snapshot"] == {"queue_depth": 0}
        finally:
            a.close()
            b.close()

    def test_many_messages_in_order(self):
        a, b = channel_pair()
        try:
            for seq in range(100):
                a.send({"kind": "job", "seq": seq})
            received = [b.recv()["seq"] for _ in range(100)]
            assert received == list(range(100))
        finally:
            a.close()
            b.close()

    def test_large_payload(self):
        a, b = channel_pair()
        try:
            blob = b"x" * (2 * 1024 * 1024)
            writer = threading.Thread(
                target=a.send, args=({"kind": "result", "blob": blob},)
            )
            writer.start()
            message = b.recv()
            writer.join(5)
            assert message["blob"] == blob
        finally:
            a.close()
            b.close()

    def test_eof_on_closed_peer(self):
        a, b = channel_pair()
        a.close()
        with pytest.raises(EOFError):
            b.recv()
        b.close()

    def test_eof_mid_frame(self):
        """A peer dying between header and payload is EOF, not garbage."""
        parent_sock, child_sock = socket.socketpair()
        channel = MessageChannel(parent_sock)
        try:
            child_sock.sendall(_HEADER.pack(1000) + b"partial")
            child_sock.close()
            with pytest.raises(EOFError):
                channel.recv()
        finally:
            channel.close()

    def test_corrupt_length_prefix_rejected(self):
        """A 4 GiB length claim must raise, not attempt the allocation."""
        parent_sock, child_sock = socket.socketpair()
        channel = MessageChannel(parent_sock)
        try:
            child_sock.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                channel.recv()
        finally:
            channel.close()
            child_sock.close()

    def test_non_dict_message_rejected(self):
        parent_sock, child_sock = socket.socketpair()
        channel = MessageChannel(parent_sock)
        try:
            child_sock.sendall(pack_frame(__import__("pickle").dumps(["not a dict"])))
            with pytest.raises(ProtocolError):
                channel.recv()
        finally:
            channel.close()
            child_sock.close()

    @pytest.mark.parametrize("payload", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_undecodable_payload_rejected(self, payload):
        parent_sock, child_sock = socket.socketpair()
        channel = MessageChannel(parent_sock)
        try:
            child_sock.sendall(pack_frame(payload))
            with pytest.raises(ProtocolError, match="undecodable frame"):
                channel.recv()
        finally:
            channel.close()
            child_sock.close()

    @pytest.mark.parametrize("payload", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_undecodable_frame_disconnects_the_parent_reader(self, payload):
        """The parent's reader ends on the frame as on EOF, so the supervisor
        recovers the shard at once instead of after the heartbeat timeout."""
        messages, lost = [], []
        handle = ShardHandle(
            0,
            cache_dir=None,
            worker_threads=1,
            on_message=lambda _handle, message: messages.append(message),
            on_disconnect=lost.append,
        )
        handle.channel, shard_end = channel_pair()
        try:
            shard_end.send({"kind": "pong", "shard": 0})
            shard_end._sock.sendall(pack_frame(payload))
            handle._reader_loop()  # returns once the reader gives up
            assert [message["kind"] for message in messages] == ["pong"]
            assert handle.disconnected and lost == [handle]
        finally:
            handle.channel.close()
            shard_end.close()

    def test_concurrent_senders_never_interleave(self):
        """Frames from many threads arrive whole (the send lock works)."""
        a, b = channel_pair()
        per_thread = 50
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    a.send({"kind": "job", "sender": t, "seq": i})
                    for i in range(per_thread)
                ]
            )
            for t in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            received = [b.recv() for _ in range(4 * per_thread)]
            for thread in threads:
                thread.join(5)
            # Every message intact, per-sender order preserved.
            for t in range(4):
                sequence = [m["seq"] for m in received if m["sender"] == t]
                assert sequence == list(range(per_thread))
        finally:
            a.close()
            b.close()

    def test_close_is_idempotent(self):
        a, b = channel_pair()
        a.close()
        a.close()
        b.close(shutdown=False)
        b.close()
        assert a.closed and b.closed
