"""The binary container (protocol version 2), frame fuzzing, fast framing.

The acceptance properties of the wire live here: every message round-trips
through the container (artifact bodies as raw length-prefixed frames — no
base64, no JSON string-escaping), no JSON text can be mistaken for a
container, and every malformed container — truncated frames,
envelope/frame length disagreements, garbage, trailing bytes — fails with
:class:`ProtocolError`, never a hang or a bad allocation.  The fuzzed bytes
travel through :class:`protocol.StreamConnection`, the framing every shard
link runs.
"""

import dataclasses
import socket

import pytest

from repro.core.codegen.python_exec import CompiledKernel
from repro.errors import ProtocolError
from repro.serve import KernelServer, ServeRequest
from repro.serve import protocol
from tests.serve.test_protocol import feed_raw, rebuild, split, stream_pair, tamper

BITS = 128
SIZE = 16


@pytest.fixture(scope="module")
def served():
    """One cold-served result (executable artifact + tuning provenance)."""
    with KernelServer(devices=("rtx4090",)) as server:
        yield server.serve(ServeRequest(kind="ntt", bits=BITS, size=SIZE))


@pytest.fixture(scope="module")
def source_result(served):
    """``served`` with a short source-text artifact (one payload frame)."""
    return dataclasses.replace(
        served,
        request=dataclasses.replace(served.request, target="cuda"),
        artifact="def kernel(x):\n    return x\n",
    )


def round_trip(message, allow_pickled=False):
    return protocol.decode_message(
        protocol.encode_message(message), allow_pickled=allow_pickled
    )


class TestV2RoundTrips:
    def test_calls_round_trip(self):
        for message in (
            protocol.ServeCall(
                request_id=7,
                request=ServeRequest(kind="blas", bits=256, operation="vmul"),
            ),
            protocol.StatsCall(request_id=8),
            protocol.PingCall(request_id=9),
            protocol.ShutdownCall(request_id=10),
        ):
            assert round_trip(message) == message

    def test_v2_blob_starts_with_magic(self):
        data = protocol.encode_message(protocol.PingCall(request_id=1))
        assert data[: len(protocol.FRAME_MAGIC)] == protocol.FRAME_MAGIC

    def test_magic_is_invalid_utf8(self):
        # No JSON text can be mistaken for a container.
        with pytest.raises(UnicodeDecodeError):
            protocol.FRAME_MAGIC.decode("utf-8")

    def test_pickled_kernel_round_trips_through_a_binary_frame(self, served):
        message = protocol.ServeReply(request_id=9, result=served)
        decoded = round_trip(message, allow_pickled=True)
        result = decoded.result
        assert result.request == served.request
        assert isinstance(result.artifact, CompiledKernel)
        limbs = tuple(range(len(served.artifact.kernel.params)))
        assert result.artifact.call_limbs(*limbs) == served.artifact.call_limbs(*limbs)

    def test_source_artifact_crosses_as_raw_utf8(self, served):
        source = "__global__ void k() {\n  /* newlines stay raw */\n}\n"
        source_result = dataclasses.replace(
            served,
            request=dataclasses.replace(served.request, target="cuda"),
            artifact=source,
        )
        data = protocol.encode_message(
            protocol.ServeReply(request_id=1, result=source_result)
        )
        # Zero-copy into the payload frame: the raw bytes appear verbatim,
        # un-escaped (a JSON string would escape every newline as \\n).
        assert source.encode("utf-8") in data
        decoded = protocol.decode_message(data)
        assert decoded.result.artifact == source

    def test_pickled_frame_is_trust_gated(self, served):
        data = protocol.encode_message(protocol.ServeReply(request_id=9, result=served))
        with pytest.raises(ProtocolError, match="unpickle"):
            protocol.decode_message(data, allow_pickled=False)

    def test_unknown_encode_version_rejected(self):
        for version in (1, 3):
            with pytest.raises(ProtocolError, match="version"):
                protocol.encode_message(protocol.PingCall(request_id=1), version=version)

    def test_version_alias_encodes_the_container(self):
        # Callers that still pass version=MAX_PROTOCOL_VERSION get exactly
        # the default encoding.
        message = protocol.PingCall(request_id=4)
        assert protocol.encode_message(
            message, version=protocol.MAX_PROTOCOL_VERSION
        ) == protocol.encode_message(message)


class TestV2Fuzz:
    """Malformed containers over a real socketpair: always ProtocolError.

    The bytes travel through the real stream framing (4-byte prefix + body
    read by :class:`protocol.StreamConnection`) exactly as they would
    between a supervisor and a shard, so short reads and mid-frame EOF are
    exercised too, not just the in-memory decoder.
    """

    @staticmethod
    def feed(payload: bytes, allow_pickled: bool = False):
        """Deliver one stream frame around ``payload``; decode its message."""
        frame = feed_raw(len(payload).to_bytes(4, "big") + payload)
        return protocol.decode_message(frame, allow_pickled=allow_pickled)

    @staticmethod
    def blob(source_result) -> bytes:
        """A valid container carrying one payload frame."""
        return protocol.encode_message(
            protocol.ServeReply(request_id=3, result=source_result)
        )

    def test_valid_blob_survives_the_stream(self, source_result):
        decoded = self.feed(self.blob(source_result))
        assert decoded.result.artifact == source_result.artifact

    def test_every_truncation_is_rejected(self, source_result):
        blob = self.blob(source_result)
        for cut in range(len(protocol.FRAME_MAGIC), len(blob)):
            with pytest.raises(ProtocolError):
                self.feed(blob[:cut])

    def test_trailing_garbage_rejected(self, source_result):
        with pytest.raises(ProtocolError, match="trailing"):
            self.feed(self.blob(source_result) + b"xx")

    def test_envelope_frame_length_mismatch_rejected(self, source_result):
        blob = self.blob(source_result)
        assert protocol.decode_message(tamper(blob)).request_id == 3  # identity rebuild
        lengths = split(blob)[0]["frames"]
        assert lengths, "the fixture blob must carry a payload frame"
        for delta in (-1, 1, 1000):
            wrong = [lengths[0] + delta] + lengths[1:]
            with pytest.raises(ProtocolError, match="mismatch|truncated|trailing"):
                self.feed(tamper(blob, frames=wrong))

    def test_garbage_after_magic_rejected(self):
        for garbage in (b"", b"\x00", b"\xff" * 64, b'{"not":"frames"}'):
            with pytest.raises(ProtocolError):
                self.feed(protocol.FRAME_MAGIC + garbage)

    def test_huge_declared_frame_never_allocates(self, source_result):
        blob = self.blob(source_result)
        with pytest.raises(ProtocolError, match="malformed|truncated"):
            self.feed(tamper(blob, frames=[protocol.MAX_FRAME_BYTES + 1]))

    def test_malformed_frame_tables_rejected(self, source_result):
        blob = self.blob(source_result)
        for bad in ({"a": 1}, [True], [-1], ["4"], [None]):
            with pytest.raises(ProtocolError, match="malformed"):
                self.feed(tamper(blob, frames=bad))

    def test_wrong_envelope_version_inside_container_rejected(self, source_result):
        # The retired v1 number, written into a well-formed container.
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            self.feed(tamper(self.blob(source_result), **{"moma-serve": 1}))

    def test_bad_frame_reference_rejected(self, source_result):
        # The payload references frame 0; an envelope declaring no frames
        # (and shipping none) leaves the reference dangling.
        head, _ = split(self.blob(source_result))
        head["frames"] = []
        with pytest.raises(ProtocolError, match="out of range"):
            self.feed(rebuild(head))

    def test_undecodable_source_frame_rejected(self, source_result):
        # A source-text frame whose bytes are not UTF-8 must fail decode,
        # not surface mojibake as kernel source.
        blob = self.blob(source_result)
        body = source_result.artifact.encode("utf-8")
        swapped = blob.replace(
            len(body).to_bytes(4, "big") + body,
            len(body).to_bytes(4, "big") + b"\xff" * len(body),
        )
        assert swapped != blob
        with pytest.raises(ProtocolError, match="UTF-8"):
            self.feed(swapped)


class TestStreamConnectionFastPath:
    def test_send_many_is_one_flush_of_many_frames(self):
        sender, receiver = stream_pair()
        try:
            payloads = [b"alpha", b"bravo" * 100, b"c"]
            sender.send_many(payloads)
            for expected in payloads:
                assert receiver.recv_bytes() == expected
        finally:
            sender.close()
            receiver.close()

    def test_send_many_of_nothing_is_a_no_op(self):
        sender, receiver = stream_pair()
        try:
            sender.send_many([])
        finally:
            sender.close()
            receiver.close()

    def test_tcp_nodelay_is_set_on_tcp_sockets(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname()[:2], timeout=5)
        server_side, _ = listener.accept()
        try:
            for sock in (client, server_side):
                protocol.StreamConnection(sock)
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            client.close()
            server_side.close()
            listener.close()

    def test_unix_sockets_survive_the_nodelay_attempt(self):
        left, right = socket.socketpair()  # AF_UNIX: no Nagle to disable
        connection = protocol.StreamConnection(left)
        try:
            connection.send_bytes(b"ok")
        finally:
            connection.close()
            right.close()
