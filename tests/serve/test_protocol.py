"""Wire-protocol round trips: every message type, the container, framing.

The property under test is that a message survives the wire *exactly* —
including an executable kernel, rebuilt from its source and interface by a
trusted decode, that must compute the same results after crossing — and
that every malformed input (wrong version, unknown type, non-container
bytes, truncated or inconsistent frames, trailing bytes) is rejected with
:class:`ProtocolError`, never half-decoded.  Framing is tested on :class:`protocol.StreamConnection`
over a real socketpair, the path every shard link runs.  The container's
own guarantees and its frame fuzzing live in ``test_protocol_v2.py``.
"""

import dataclasses
import json
import random
import socket
import threading
import time

import pytest

from repro.errors import ProtocolError, ServingError, TuningError
from repro.core.codegen.python_exec import CompiledKernel
from repro.serve import KernelServer, ServeRequest
from repro.serve import protocol

BITS = 128
SIZE = 16


@pytest.fixture(scope="module")
def served():
    """One cold-served result (executable artifact + tuning provenance)."""
    with KernelServer(devices=("rtx4090",)) as server:
        yield server.serve(ServeRequest(kind="ntt", bits=BITS, size=SIZE))


def round_trip(message, trusted=False):
    return protocol.decode_message(protocol.encode_message(message), trusted=trusted)


def live_limbs(artifact) -> int:
    """The kernel's limb-argument count, read from its wire interface."""
    layout = artifact.interface()["param_layout"]
    return sum(limb is not None for limbs in layout.values() for limb in limbs)


def split(blob: bytes) -> tuple[dict, bytes]:
    """A container's JSON envelope and the frame bytes that follow it."""
    offset = len(protocol.FRAME_MAGIC)
    head_length = int.from_bytes(blob[offset : offset + 4], "big")
    head = json.loads(blob[offset + 4 : offset + 4 + head_length].decode("utf-8"))
    return head, blob[offset + 4 + head_length :]


def rebuild(head, tail: bytes = b"") -> bytes:
    """A container around ``head`` with ``tail`` as its frame bytes."""
    data = json.dumps(head, sort_keys=True).encode("utf-8")
    return protocol.FRAME_MAGIC + len(data).to_bytes(4, "big") + data + tail


def tamper(blob: bytes, **envelope_overrides) -> bytes:
    """Rebuild a container with its JSON envelope fields overridden.

    The frame bytes after the envelope are preserved verbatim, so a
    mismatch between what the envelope *declares* and what the frames
    *are* can be manufactured precisely.
    """
    head, tail = split(blob)
    head.update(envelope_overrides)
    return rebuild(head, tail)


def tamper_payload(message, **payload_overrides) -> bytes:
    """``message`` encoded, with payload fields overridden on the wire."""
    head, tail = split(protocol.encode_message(message))
    head["payload"].update(payload_overrides)
    return rebuild(head, tail)


def stream_pair():
    """Two connected ``StreamConnection`` ends over a real socketpair."""
    left, right = socket.socketpair()
    right.settimeout(30.0)  # a hang fails loudly, not forever
    return protocol.StreamConnection(left), protocol.StreamConnection(right)


def feed_raw(raw: bytes) -> bytes:
    """Write ``raw`` bytes then EOF; return what ``recv_bytes`` makes of it."""
    writer, reader_sock = socket.socketpair()
    reader_sock.settimeout(30.0)
    reader = protocol.StreamConnection(reader_sock)
    try:
        if raw:
            writer.sendall(raw)
        writer.shutdown(socket.SHUT_WR)
        return reader.recv_bytes()
    finally:
        writer.close()
        reader.close()


class TestMessageRoundTrips:
    def test_serve_call(self):
        message = protocol.ServeCall(
            request_id=7, request=ServeRequest(kind="blas", bits=256, operation="vmul")
        )
        assert round_trip(message) == message

    def test_serve_reply_with_executable_kernel(self, served):
        message = protocol.ServeReply(request_id=9, result=served)
        decoded = round_trip(message, trusted=True)
        assert decoded.request_id == 9
        result = decoded.result
        assert result.request == served.request
        assert result.config == served.config
        assert result.fingerprint == served.fingerprint
        assert result.cache_key == served.cache_key
        assert result.warm == served.warm
        # The tuning provenance crosses (minus the trial list, by design).
        assert result.tuning.candidate == served.tuning.candidate
        assert result.tuning.workload == served.tuning.workload
        assert result.tuning.trials == ()
        # The executable artifact computes identically after the wire.
        assert isinstance(result.artifact, CompiledKernel)
        assert result.artifact.kernel is None
        assert result.artifact.interface() == served.artifact.interface()
        limbs = tuple(range(live_limbs(served.artifact)))
        assert result.artifact.call_limbs(*limbs) == served.artifact.call_limbs(*limbs)

    def test_serve_reply_with_source_artifact(self, served):
        source_result = dataclasses.replace(
            served, request=dataclasses.replace(served.request, target="cuda"),
            artifact="__global__ void k() {}",
        )
        decoded = round_trip(
            protocol.ServeReply(request_id=1, result=source_result)
        )
        assert decoded.result.artifact == "__global__ void k() {}"

    def test_error_reply_rebuilds_repro_errors(self):
        message = protocol.ErrorReply.from_exception(3, TuningError("bad workload"))
        decoded = round_trip(message)
        assert decoded == message
        error = decoded.exception()
        assert isinstance(error, TuningError)
        assert "bad workload" in str(error)

    def test_error_reply_degrades_unknown_types_to_serving_error(self):
        decoded = round_trip(protocol.ErrorReply.from_exception(3, TypeError("boom")))
        error = decoded.exception()
        assert isinstance(error, ServingError)
        assert "TypeError" in str(error)

    def test_stats_round_trip(self):
        stats = protocol.ShardStats(
            shard_id=1,
            pid=1234,
            requests=10,
            warm_serves=6,
            cold_serves=3,
            dedup_hits=1,
            errors=0,
            tune_batches=2,
            batched_tunes=3,
            queue_depth=0,
            resident_kernels=3,
            warm_histogram=(0, 4, 2, 0),
            cold_histogram=(0, 0, 1, 2),
        )
        message = protocol.StatsReply(request_id=11, stats=stats)
        assert round_trip(message) == message

    @pytest.mark.parametrize("bad", [True, -1, 1.5, "2"])
    def test_stats_histogram_counts_must_be_non_negative_integers(self, bad):
        # A bool or a negative count would corrupt the merged p50/p95.
        stats = protocol.ShardStats(
            shard_id=1, pid=1234, requests=1, warm_serves=1, cold_serves=0,
            dedup_hits=0, errors=0, tune_batches=0, batched_tunes=0,
            queue_depth=0, resident_kernels=1,
            warm_histogram=(0, 1), cold_histogram=(0, 0),
        )
        head, tail = split(
            protocol.encode_message(protocol.StatsReply(request_id=1, stats=stats))
        )
        head["payload"]["stats"]["warm_histogram"] = [0, bad]
        with pytest.raises(ProtocolError, match="histogram"):
            protocol.decode_message(rebuild(head, tail))

    @pytest.mark.parametrize(
        "message",
        [
            protocol.StatsCall(request_id=2),
            protocol.PingCall(request_id=4),
            protocol.PongReply(request_id=4, shard_id=0, pid=77),
            protocol.ShutdownCall(request_id=5),
        ],
    )
    def test_simple_messages(self, message):
        assert round_trip(message) == message


class TestArtifactEncoding:
    def test_untrusted_decode_returns_source(self, served):
        frames = []
        payload = protocol.encode_artifact(served.artifact, frames)
        assert payload["interface"] == served.artifact.interface()
        decoded = protocol.decode_artifact(payload, frames=frames)  # untrusted by default
        assert decoded == served.artifact.source

    def test_source_passes_untrusted(self):
        frames = []
        payload = protocol.encode_artifact("void k();", frames)
        assert protocol.decode_artifact(payload, frames=frames) == "void k();"

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ProtocolError, match="unknown artifact encoding"):
            protocol.decode_artifact(
                {"encoding": "dll", "frame": 0}, trusted=True, frames=(b"",)
            )

    def test_unencodable_artifact_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            protocol.encode_artifact(object(), [])


class TestVersionAndShape:
    def test_unknown_version_rejected(self):
        data = protocol.encode_message(protocol.PingCall(request_id=1))
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            protocol.decode_message(
                tamper(data, **{"moma-serve": protocol.PROTOCOL_VERSION + 1})
            )

    def test_unknown_message_type_rejected(self):
        data = tamper(
            protocol.encode_message(protocol.PingCall(request_id=1)),
            type="warp",
            payload={},
        )
        with pytest.raises(ProtocolError, match="unknown message type"):
            protocol.decode_message(data)

    def test_non_json_rejected(self):
        # Anything without the container magic, a JSON envelope included.
        envelope = {"moma-serve": 1, "type": "ping", "payload": {"request_id": 1}}
        for data in (b"\x00\x01binary", json.dumps(envelope).encode()):
            with pytest.raises(ProtocolError, match="undecodable"):
                protocol.decode_message(data)

    def test_foreign_envelope_rejected(self):
        with pytest.raises(ProtocolError, match="not a moma-serve envelope"):
            protocol.decode_message(rebuild({"jsonrpc": "2.0"}))

    def test_missing_request_id_rejected(self):
        data = tamper(protocol.encode_message(protocol.PingCall(request_id=1)), payload={})
        with pytest.raises(ProtocolError, match="request_id"):
            protocol.decode_message(data)

    def test_boolean_request_id_rejected(self):
        # JSON true is not request 1: accepted, it would resolve whichever
        # call the supervisor had pending under id 1.
        data = tamper_payload(
            protocol.PongReply(request_id=1, shard_id=0, pid=7), request_id=True
        )
        with pytest.raises(ProtocolError, match="request_id"):
            protocol.decode_message(data)

    @pytest.mark.parametrize("bad", [True, "1", None, 1.5])
    def test_non_integer_request_ids_rejected(self, bad):
        # Every message type, calls and replies alike, is checked before
        # its payload decoder runs.
        for message in (
            protocol.PingCall(request_id=1),
            protocol.PongReply(request_id=1, shard_id=0, pid=7),
            protocol.StatsCall(request_id=1),
            protocol.ShutdownCall(request_id=1),
            protocol.ErrorReply.from_exception(1, TuningError("x")),
        ):
            with pytest.raises(ProtocolError, match="request_id"):
                protocol.decode_message(tamper_payload(message, request_id=bad))

    def test_unknown_payload_keys_are_ignored(self):
        # Additive optional fields may ride within a protocol version.
        data = tamper_payload(protocol.PingCall(request_id=8), future_field=True)
        assert protocol.decode_message(data) == protocol.PingCall(request_id=8)


class TestFraming:
    def test_stream_round_trip_preserves_order(self):
        messages = [
            protocol.PingCall(request_id=1),
            protocol.StatsCall(request_id=2),
            protocol.ShutdownCall(request_id=3),
        ]
        sender, receiver = stream_pair()
        try:
            for message in messages:
                sender.send_bytes(protocol.encode_message(message))
            sender.close()
            received = [
                protocol.decode_message(receiver.recv_bytes()) for _ in messages
            ]
            assert received == messages
            with pytest.raises(EOFError):  # clean EOF at a frame boundary
                receiver.recv_bytes()
        finally:
            receiver.close()

    def test_truncated_frame_rejected(self):
        data = protocol.encode_message(protocol.PingCall(request_id=1))
        frame = len(data).to_bytes(4, "big") + data
        with pytest.raises(ProtocolError, match="truncated"):
            feed_raw(frame[:-3])

    def test_short_length_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="short length prefix"):
            feed_raw(b"\x00\x01")

    def test_implausible_length_rejected(self):
        prefix = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="implausible"):
            feed_raw(prefix + b"x")


class TestHandshakeMessages:
    def test_hello_round_trip(self):
        message = protocol.HelloCall(
            request_id=1,
            protocol_version=protocol.PROTOCOL_VERSION,
            shard_id=3,
        )
        assert round_trip(message) == message

    def test_hello_reply_round_trip(self):
        message = protocol.HelloReply(
            request_id=1,
            shard_id=3,
            pid=4242,
            protocol_version=protocol.PROTOCOL_VERSION,
        )
        assert round_trip(message) == message

    @pytest.mark.parametrize(
        "field, value", [("protocol_version", True), ("shard_id", False)]
    )
    def test_boolean_handshake_fields_rejected(self, field, value):
        hello = protocol.HelloCall(
            request_id=1,
            protocol_version=protocol.PROTOCOL_VERSION,
            shard_id=0,
        )
        with pytest.raises(ProtocolError, match=field):
            protocol.decode_message(tamper_payload(hello, **{field: value}))

    def test_source_only_result_downgrades_kernels(self, served):
        downgraded = protocol.source_only_result(served)
        assert downgraded.artifact == served.artifact.source
        assert downgraded.request == served.request
        # Source-text artifacts pass through untouched.
        assert protocol.source_only_result(downgraded) is downgraded


class TestSocketFuzz:
    """Malformed frames over a real socketpair must always fail cleanly.

    Every outcome of feeding truncated / oversized / garbage bytes into
    :meth:`protocol.StreamConnection.recv_bytes` and then
    :func:`protocol.decode_message` must be a :class:`ProtocolError` (or a
    clean-EOF ``EOFError``) — never a hang, an ``OverflowError``, or a
    ``MemoryError`` from trusting a corrupt length prefix.
    """

    @staticmethod
    def feed(raw: bytes):
        """Deliver ``raw`` then EOF; return/raise the decoded outcome."""
        return protocol.decode_message(feed_raw(raw))

    def test_empty_stream_is_clean_eof(self):
        with pytest.raises(EOFError):
            self.feed(b"")

    def test_every_truncation_of_a_valid_frame_is_rejected(self):
        data = protocol.encode_message(protocol.PingCall(request_id=9))
        frame = len(data).to_bytes(4, "big") + data
        for cut in range(1, len(frame)):
            with pytest.raises(ProtocolError):
                self.feed(frame[:cut])

    def test_oversized_length_prefix_never_allocates(self):
        for length in (protocol.MAX_FRAME_BYTES + 1, 0xFFFFFFFF):
            with pytest.raises(ProtocolError, match="implausible"):
                self.feed(length.to_bytes(4, "big") + b"tiny")

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError, match="implausible"):
            self.feed(b"\x00\x00\x00\x00")

    def test_max_length_prefix_with_short_body_is_truncation(self):
        # A plausible (in-bounds) length the peer never finishes writing.
        prefix = (1 << 20).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="truncated"):
            self.feed(prefix + b"only this much arrived")

    def test_garbage_bytes_never_escape_protocol_error(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(64):
            payload = rng.randbytes(rng.randrange(1, 64))
            try:
                self.feed(payload)
            except ProtocolError:
                pass  # the only acceptable exception

    def test_valid_frame_survives_dribbled_delivery(self):
        # One byte at a time across the socket: the reader must reassemble.
        data = protocol.encode_message(protocol.StatsCall(request_id=5))
        frame = len(data).to_bytes(4, "big") + data
        writer, reader_sock = socket.socketpair()
        reader_sock.settimeout(30.0)
        reader = protocol.StreamConnection(reader_sock)

        def dribble():
            for index in range(len(frame)):
                writer.sendall(frame[index : index + 1])
                time.sleep(0.001)
            writer.shutdown(socket.SHUT_WR)

        feeder = threading.Thread(target=dribble, daemon=True)
        feeder.start()
        try:
            decoded = protocol.decode_message(reader.recv_bytes())
            assert decoded == protocol.StatsCall(request_id=5)
        finally:
            feeder.join(timeout=10)
            writer.close()
            reader.close()
