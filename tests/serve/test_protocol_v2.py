"""The binary container, frame fuzzing, fast framing.

The acceptance properties of the wire live here: every message round-trips
through the container (artifact bodies as raw length-prefixed frames — no
base64, no JSON string-escaping), no JSON text can be mistaken for a
container, and every malformed container — truncated frames,
envelope/frame length disagreements, garbage, trailing bytes, kernel
source or interfaces that do not rebuild — fails with
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
from tests.serve.test_protocol import (
    feed_raw,
    rebuild,
    shard_stats,
    split,
    stream_pair,
    tamper,
)

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


def round_trip(message, trusted=False):
    return protocol.decode_message(protocol.encode_message(message), trusted=trusted)


#: Stats replies a decode must refuse: a change to the stats payload.
MALFORMED_STATS = {
    "samples absent": lambda stats: {k: v for k, v in stats.items() if k != "samples"},
    "samples not a list": lambda stats: {**stats, "samples": {"a": 1}},
    "short sample": lambda stats: {**stats, "samples": [stats["samples"][0][:3]]},
    "unknown kind": lambda stats: {**stats, "samples": [["summary", "x", {}, 1]]},
    "empty name": lambda stats: {**stats, "samples": [["counter", "", {}, 1]]},
    "non-string label": lambda stats: {
        **stats, "samples": [["counter", "x", {"shard": 7}, 1]]
    },
    "invalid tenant label": lambda stats: {
        **stats, "samples": [["counter", "requests_total", {"tenant": "a::b"}, 1]]
    },
    "negative counter": lambda stats: {**stats, "samples": [["counter", "x", {}, -1]]},
    "boolean gauge": lambda stats: {**stats, "samples": [["gauge", "x", {}, True]]},
    "histogram of the wrong width": lambda stats: {
        **stats, "samples": [["histogram", "x", {}, {"counts": [1, 2], "sum": 3.0}]]
    },
    "histogram without a sum": lambda stats: {
        **stats, "samples": [["histogram", "x", {}, {"counts": [0] * 26}]]
    },
    "duplicate series": lambda stats: {
        **stats, "samples": stats["samples"] + stats["samples"][:1]
    },
    "shard id not an integer": lambda stats: {**stats, "shard_id": "0"},
}


#: Kernel artifacts a trusted decode must refuse: (source, or ``None`` for
#: the real kernel's; a change to its interface, or ``None``).
MALFORMED_KERNELS = {
    "interface not a dict": (None, sorted),
    "missing interface key": (
        None,
        lambda interface: {k: v for k, v in interface.items() if k != "outputs"},
    ),
    "layout of the wrong type": (
        None,
        lambda interface: {**interface, "param_layout": list(interface["param_layout"])},
    ),
    "source defines no function": ("# no kernel here\n", None),
    "source defines two functions": (
        "def a():\n    return ()\n\n\ndef b():\n    return ()\n",
        None,
    ),
    "function arity differs from the layout": ("def k(x):\n    return (x,)\n", None),
}


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

    def test_kernel_crosses_as_source_plus_interface(self, served):
        message = protocol.ServeReply(request_id=9, result=served)
        data = protocol.encode_message(message)
        assert served.artifact.source.encode("utf-8") in data
        head, _ = split(data)
        assert head["payload"]["result"]["artifact"]["interface"] == (
            served.artifact.interface()
        )
        result = protocol.decode_message(data, trusted=True).result
        assert result.request == served.request
        assert isinstance(result.artifact, CompiledKernel)
        assert result.artifact.source == served.artifact.source
        layout = result.artifact.interface()["param_layout"]
        limbs = range(sum(limb is not None for names in layout.values() for limb in names))
        assert result.artifact.call_limbs(*limbs) == served.artifact.call_limbs(*limbs)

    def test_repeated_trusted_decode_hits_the_kernel_cache(self, served):
        data = protocol.encode_message(protocol.ServeReply(request_id=9, result=served))
        first = protocol.decode_message(data, trusted=True).result.artifact
        assert protocol.decode_message(data, trusted=True).result.artifact is first
        # allow_pickled= is an alias of trusted=.
        assert protocol.decode_message(data, allow_pickled=True).result.artifact is first

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

    def test_unknown_encode_version_rejected(self):
        for version in (protocol.PROTOCOL_VERSION - 1, protocol.PROTOCOL_VERSION + 1):
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
    def feed(payload: bytes, trusted: bool = False):
        """Deliver one stream frame around ``payload``; decode its message."""
        frame = feed_raw(len(payload).to_bytes(4, "big") + payload)
        return protocol.decode_message(frame, trusted=trusted)

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
        # Retired version numbers, written into a well-formed container.
        for version in (1, 2, 3):
            with pytest.raises(ProtocolError, match="unsupported protocol version"):
                self.feed(tamper(self.blob(source_result), **{"moma-serve": version}))

    @pytest.mark.parametrize("case", sorted(MALFORMED_KERNELS))
    def test_malformed_kernel_fails_a_trusted_decode(self, served, case):
        source, change = MALFORMED_KERNELS[case]
        interface = served.artifact.interface()
        artifact = source if source is not None else served.artifact.source
        head, tail = split(self.blob(dataclasses.replace(served, artifact=artifact)))
        head["payload"]["result"]["artifact"]["interface"] = (
            change(interface) if change is not None else interface
        )
        data = rebuild(head, tail)
        # Untrusted, the interface is ignored and the source comes back.
        assert self.feed(data).result.artifact == artifact
        with pytest.raises(ProtocolError, match="does not rebuild"):
            self.feed(data, trusted=True)

    @pytest.mark.parametrize("case", sorted(MALFORMED_STATS))
    def test_malformed_stats_samples_rejected(self, case):
        head, tail = split(
            protocol.encode_message(
                protocol.StatsReply(request_id=4, stats=shard_stats())
            )
        )
        assert self.feed(rebuild(head, tail)).stats == shard_stats()
        head["payload"]["stats"] = MALFORMED_STATS[case](head["payload"]["stats"])
        with pytest.raises(ProtocolError, match="malformed stats"):
            self.feed(rebuild(head, tail))

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
