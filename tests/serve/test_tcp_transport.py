"""The shard tier over real localhost TCP sockets, end to end.

The acceptance properties of the network transport live here: a supervisor
serves requests through ≥2 shards over TCP, the handshake pins the protocol
version, kernels arrive as source text unless the supervisor was built
with ``execute_remote=True`` (then they rebuild executable), killing a
remote shard's connection re-routes its keys to ring successors without
hanging in-flight futures, and a listener survives a supervisor
disconnect (re-accept) and a bad handshake.

TCP shards run as in-process listener threads (each owns a real
``KernelServer``): the bytes cross real sockets exactly as they would
between machines, without per-test process spawn cost.
"""

import json
import queue
import socket
import threading
import time

import pytest

from repro.errors import ReproError, ServingError
from repro.serve import (
    ServedBlasEngine,
    ServedNTT,
    ServeRequest,
    ShardSupervisor,
    serve_shard_tcp,
)
from repro.serve import protocol
from tests.serve.test_supervisor import DIRECTED_REQUEST, assert_matches_local_compile

SIZE = 16

#: Distinct kernel families, enough to all but surely spread over 2 shards.
FAMILY_MIX = [
    ServeRequest(kind="ntt", bits=64, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE, operation="gentleman_sande"),
    ServeRequest(kind="ntt", bits=256, size=SIZE),
    ServeRequest(kind="blas", bits=64, operation="vadd"),
    ServeRequest(kind="blas", bits=128, operation="vmul"),
    ServeRequest(kind="blas", bits=256, operation="axpy"),
]


def start_listener(shard_id=0, workers=2):
    """One TCP shard in a daemon thread; returns (address, thread)."""
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_shard_tcp,
        kwargs=dict(
            host="127.0.0.1",
            port=0,
            shard_id=shard_id,
            workers=workers,
            on_bound=bound.put,
        ),
        daemon=True,
    )
    thread.start()
    return bound.get(timeout=30), thread


def shut_down_listener(address, thread):
    """Stop a listener the way an operator would: hello, then shutdown."""
    try:
        sock = socket.create_connection(address, timeout=5)
    except OSError:
        return  # already gone
    connection = protocol.StreamConnection(sock)
    try:
        connection.send_bytes(
            protocol.encode_message(
                protocol.HelloCall(
                    request_id=1,
                    protocol_version=protocol.PROTOCOL_VERSION,
                    shard_id=-1,
                )
            )
        )
        connection.recv_bytes()  # the hello reply
        connection.send_bytes(
            protocol.encode_message(protocol.ShutdownCall(request_id=2))
        )
    except (OSError, EOFError):
        pass
    finally:
        connection.close()
    thread.join(timeout=60)


@pytest.fixture(scope="module")
def tcp_cluster():
    """Two TCP shard listeners and one supervisor connected to both."""
    listeners = [start_listener(shard_id=i) for i in range(2)]
    supervisor = ShardSupervisor(
        shards=0,
        devices=("rtx4090",),
        connect=tuple(address for address, _ in listeners),
    )
    results = [supervisor.serve(request) for request in FAMILY_MIX]
    yield supervisor, results
    supervisor.close()
    for address, thread in listeners:
        shut_down_listener(address, thread)


class TestServingOverTcp:
    def test_all_families_served(self, tcp_cluster):
        _, results = tcp_cluster
        assert len(results) == len(FAMILY_MIX)
        for request, result in zip(FAMILY_MIX, results):
            assert result.request == request
            assert result.tuning is not None

    def test_traffic_crossed_both_shards(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        routed = supervisor.routed_counts()
        assert sum(routed.values()) >= len(FAMILY_MIX)
        assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"

    def test_source_only_artifacts_round_trip(self, tcp_cluster):
        # The default: remote kernels arrive as their generated source text.
        _, results = tcp_cluster
        for result in results:
            assert isinstance(result.artifact, str)
            assert "def " in result.artifact

    def test_frontends_refuse_source_only_kernels_at_construction(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        with pytest.raises(ServingError, match="execute_remote"):
            ServedNTT(supervisor, size=SIZE, bits=64)
        with pytest.raises(ServingError, match="execute_remote"):
            ServedBlasEngine(supervisor, bits=64)

    def test_execute_remote_ships_executable_kernels(self):
        address, thread = start_listener()
        try:
            supervisor = ShardSupervisor(
                shards=0,
                devices=("rtx4090",),
                connect=(address,),
                execute_remote=True,
            )
            try:
                assert_matches_local_compile(supervisor.serve(DIRECTED_REQUEST))
                ntt = ServedNTT(supervisor, size=SIZE, bits=64)
                values = list(range(SIZE))
                assert ntt.inverse(ntt.forward(values)) == values
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_repeat_requests_are_warm(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        for request in FAMILY_MIX[:3]:
            assert supervisor.serve(request).warm

    def test_stats_aggregate_across_tcp_shards(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        stats = supervisor.stats()
        assert len(stats.shards) == 2
        assert stats.requests >= len(FAMILY_MIX)
        assert stats.cold_serves >= len(FAMILY_MIX)

    def test_ping_reaches_every_shard(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        assert set(supervisor.ping()) == {0, 1}

    def test_shard_side_failure_raises_here(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        bad = ServeRequest(kind="ntt", bits=128, size=SIZE, target="no-such-target")
        with pytest.raises(ReproError):
            supervisor.serve(bad)


class TestHandshake:
    def test_version_mismatch_is_refused(self):
        address, thread = start_listener()
        try:
            sock = socket.create_connection(address, timeout=5)
            connection = protocol.StreamConnection(sock)
            try:
                connection.send_bytes(
                    protocol.encode_message(
                        protocol.HelloCall(
                            request_id=1,
                            protocol_version=protocol.PROTOCOL_VERSION + 1,
                            shard_id=0,
                        )
                    )
                )
                reply = protocol.decode_message(connection.recv_bytes())
                assert isinstance(reply, protocol.ErrorReply)
                assert "protocol version" in reply.message
            finally:
                connection.close()
            # The listener survives the refusal and accepts a proper peer.
            supervisor = ShardSupervisor(
                shards=0, devices=("rtx4090",), connect=(address,)
            )
            try:
                assert 0 in supervisor.ping()
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_v1_json_hello_is_refused(self):
        # A JSON envelope from a build that predates the container: the
        # listener answers with an ErrorReply and keeps accepting.
        address, thread = start_listener()
        try:
            sock = socket.create_connection(address, timeout=5)
            connection = protocol.StreamConnection(sock)
            try:
                hello = {
                    "moma-serve": 1,
                    "type": "hello",
                    "payload": {
                        "request_id": 1,
                        "protocol_version": 1,
                        "shard_id": 0,
                    },
                }
                connection.send_bytes(json.dumps(hello).encode("utf-8"))
                reply = protocol.decode_message(connection.recv_bytes())
                assert isinstance(reply, protocol.ErrorReply)
                assert "container" in reply.message
            finally:
                connection.close()
            supervisor = ShardSupervisor(
                shards=0, devices=("rtx4090",), connect=(address,)
            )
            try:
                assert 0 in supervisor.ping()
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_remote_shards_pool_connections(self):
        address, thread = start_listener()
        try:
            supervisor = ShardSupervisor(
                shards=0, devices=("rtx4090",), connect=(address,), pool=2
            )
            try:
                result = supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE))
                assert isinstance(result.artifact, str)
                assert len(supervisor._handles[0].links) == 2
                # Traffic flows over the pooled links and the wire profile
                # sees it: coalesced flushes never exceed messages sent.
                wire = supervisor.wire_snapshot()
                assert wire.messages_sent >= 1
                assert wire.flushes >= 1
                assert wire.flushes <= wire.messages_sent
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_hellos_pings_and_probes_are_counted_both_ways(self):
        address, thread = start_listener()
        try:
            supervisor = ShardSupervisor(
                shards=0, devices=("rtx4090",), connect=(address,), pool=2
            )
            try:
                supervisor.ping()
                supervisor.stats()
                # A background keep-alive ping may be in flight: its pong
                # arrives within the monitor's ping interval.
                deadline = time.monotonic() + 5.0
                wire = supervisor.wire_snapshot()
                while wire.messages_received != wire.messages_sent and time.monotonic() < deadline:
                    time.sleep(0.05)
                    wire = supervisor.wire_snapshot()
                assert wire.messages_sent == wire.messages_received >= 4  # 2 hellos + 2 probes
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_non_hello_first_frame_is_refused(self):
        address, thread = start_listener()
        try:
            sock = socket.create_connection(address, timeout=5)
            connection = protocol.StreamConnection(sock)
            try:
                connection.send_bytes(
                    protocol.encode_message(protocol.PingCall(request_id=1))
                )
                reply = protocol.decode_message(connection.recv_bytes())
                assert isinstance(reply, protocol.ErrorReply)
                assert "hello" in reply.message
            finally:
                connection.close()
        finally:
            shut_down_listener(address, thread)

    def test_unreachable_remote_fails_construction(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            free_port = placeholder.getsockname()[1]
        with pytest.raises(ServingError, match="cannot reach"):
            ShardSupervisor(
                shards=0,
                devices=("rtx4090",),
                connect=(f"127.0.0.1:{free_port}",),
                connect_timeout=0.5,
            )

    def test_bad_addresses_rejected(self):
        with pytest.raises(ServingError, match="host:port"):
            ShardSupervisor(shards=0, devices=("rtx4090",), connect=("nocolon",))
        with pytest.raises(ServingError, match="port"):
            ShardSupervisor(shards=0, devices=("rtx4090",), connect=("host:zap",))


class TestDisconnectRebalance:
    def test_lost_connection_reroutes_to_ring_successor(self):
        # Killing a remote shard's connection must re-route its keys to the
        # surviving shard — in-flight futures resolve, nothing hangs.
        listeners = [start_listener(shard_id=i) for i in range(2)]
        supervisor = ShardSupervisor(
            shards=0,
            devices=("rtx4090",),
            connect=tuple(address for address, _ in listeners),
            restart=False,  # no re-dial: the loss must be absorbed by the ring
        )
        try:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.serve(request)
            victim = supervisor.router.route(request)
            survivor = 1 - victim

            in_flight = supervisor.submit(
                ServeRequest(kind="ntt", bits=256, size=SIZE)
            )
            supervisor._handles[victim].connection.close()

            # In-flight work resolves (re-routed if it was on the victim).
            assert in_flight.result(timeout=120).request.bits == 256

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and victim in supervisor.router.shard_ids:
                time.sleep(0.05)
            assert supervisor.router.shard_ids == (survivor,)

            # The victim's family now routes to — and is served by — the
            # ring successor.
            assert supervisor.router.route(request) == survivor
            assert supervisor.serve(request).request == request
        finally:
            supervisor.close()
            for address, thread in listeners:
                shut_down_listener(address, thread)

    def test_supervisor_reconnects_after_connection_loss(self):
        # With restart enabled the monitor re-dials the listener (which has
        # gone back to accept) and the shard re-joins the ring.
        address, thread = start_listener()
        supervisor = ShardSupervisor(
            shards=0, devices=("rtx4090",), connect=(address,)
        )
        try:
            supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE))
            supervisor._handles[0].connection.close()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                handle = supervisor._handles[0]
                if handle.alive() and 0 in supervisor.router.shard_ids:
                    break
                time.sleep(0.05)
            assert supervisor._handles[0].alive()
            assert supervisor.router.shard_ids == (0,)
            # The listener kept its server warm across the reconnect.
            assert supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE)).warm
        finally:
            supervisor.close()
            shut_down_listener(address, thread)


class TestMixedRing:
    def test_local_and_remote_shards_share_one_ring(self):
        address, thread = start_listener(shard_id=0)
        supervisor = ShardSupervisor(
            shards=1,  # one spawned local shard...
            devices=("rtx4090",),
            connect=(address,),  # ...plus one remote: ring ids 0 (local), 1 (remote)
            workers=2,
        )
        try:
            for request in FAMILY_MIX:
                assert supervisor.serve(request).request == request
            routed = supervisor.routed_counts()
            assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"
            pongs = supervisor.ping()
            assert set(pongs) == {0, 1}
            stats = supervisor.stats()
            assert len(stats.shards) == 2
        finally:
            supervisor.close()
            shut_down_listener(address, thread)
