"""The shard loop over a socketpair, run in-process.

``run_shard`` is what a spawned local shard executes: it wraps its end of
the supervisor's ``socket.socketpair()`` in
:class:`~repro.serve.protocol.StreamConnection` and serves until a
shutdown call or the supervisor's end closing.  Running it on a thread
here lets the tests drive the other end frame by frame, including frames
no well-behaved supervisor would send.
"""

import os
import socket
import threading

import pytest

from repro.core.codegen.python_exec import CompiledKernel
from repro.serve import ServeRequest
from repro.serve import protocol
from repro.serve.shard import run_shard

SHARD_ID = 3


@pytest.fixture
def shard():
    """``(connection, thread, sock)``: the supervisor's framed end, the
    shard loop, and the raw socket under that end."""
    left, right = socket.socketpair()
    left.settimeout(60.0)  # a hang fails loudly, not forever
    thread = threading.Thread(
        target=run_shard,
        args=(right, SHARD_ID, ("rtx4090",)),
        kwargs={"workers": 1},
        daemon=True,
    )
    thread.start()
    connection = protocol.StreamConnection(left)
    yield connection, thread, left
    connection.close()
    thread.join(timeout=30)
    assert not thread.is_alive()


def call(connection, message):
    connection.send_bytes(protocol.encode_message(message))
    return protocol.decode_message(connection.recv_bytes(), trusted=True)


class TestShardLoop:
    def test_ping_is_answered(self, shard):
        connection, _, _ = shard
        pong = call(connection, protocol.PingCall(request_id=12))
        assert pong == protocol.PongReply(
            request_id=12, shard_id=SHARD_ID, pid=os.getpid()
        )

    def test_serve_reply_rebuilds_as_an_executable_kernel(self, shard):
        # The shard ships source plus interface; a trusted decode rebuilds it.
        connection, _, _ = shard
        request = ServeRequest(kind="blas", bits=64, operation="vadd")
        reply = call(connection, protocol.ServeCall(request_id=1, request=request))
        assert isinstance(reply, protocol.ServeReply)
        assert reply.request_id == 1
        assert reply.result.request == request
        assert isinstance(reply.result.artifact, CompiledKernel)
        assert reply.result.artifact(x=2, y=3, q=7) == {"z": 5}

    def test_shutdown_call_ends_the_loop(self, shard):
        connection, thread, _ = shard
        connection.send_bytes(protocol.encode_message(protocol.ShutdownCall(request_id=2)))
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_closing_the_supervisor_end_ends_the_loop(self, shard):
        connection, thread, _ = shard
        connection.close()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_undecodable_frame_gets_an_error_reply_and_serving_continues(self, shard):
        connection, _, _ = shard
        connection.send_bytes(b"not a container")
        error = protocol.decode_message(connection.recv_bytes())
        assert isinstance(error, protocol.ErrorReply)
        assert error.request_id == -1
        assert error.error_type == "ProtocolError"
        assert call(connection, protocol.PingCall(request_id=5)).request_id == 5

    def test_oversized_length_prefix_ends_the_loop(self, shard):
        # Local frames get the MAX_FRAME_BYTES guard: the shard drops the
        # link rather than allocate for (or wait on) the declared body.
        connection, thread, sock = shard
        sock.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises((EOFError, OSError)):
            connection.recv_bytes()
