"""Fast-wire non-regression: the warm TCP path.

**Warm TCP throughput** — requests/sec for already-served families through
a real localhost TCP socket (supervisor → listener → reply), crossing the
full path the paper's serving tier uses in production: consistent-hash
routing, container encode, coalesced socket flush, stream framing, decode,
future resolution.  Submitted as one batch so the sender threads can
coalesce; the floor is deliberately conservative (CI machines are noisy)
but catches order-of-magnitude regressions like an accidental per-request
Nagle stall.
"""

import queue
import socket
import threading
import time

import pytest

from repro.serve import (
    ServeRequest,
    ShardSupervisor,
    serve_shard_tcp,
)
from repro.serve import protocol
from repro.serve.client import serve_many

BITS = 128
SIZE = 16

#: Warm requests/sec over real TCP must stay above this (conservative) floor.
REQUIRED_WARM_TCP_RPS = 200.0

_WARM_REQUESTS = 300


def _start_listener():
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_shard_tcp,
        kwargs=dict(
            host="127.0.0.1", port=0, shard_id=0, workers=2, on_bound=bound.put
        ),
        daemon=True,
    )
    thread.start()
    return bound.get(timeout=60), thread


def _shut_down_listener(address, thread):
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
                    trust=protocol.TRUST_SOURCE,
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


def _measure_tcp():
    address, thread = _start_listener()
    supervisor = ShardSupervisor(shards=0, devices=("rtx4090",), connect=(address,))
    try:
        request = ServeRequest(kind="ntt", bits=BITS, size=SIZE)
        supervisor.serve(request)  # tune + compile once; everything after is warm

        started = time.perf_counter()
        results = serve_many(supervisor, [request] * _WARM_REQUESTS)
        elapsed = time.perf_counter() - started
        assert len(results) == _WARM_REQUESTS
        assert all(result.warm for result in results)

        wire = supervisor.wire_snapshot()
        return _WARM_REQUESTS / elapsed, wire
    finally:
        supervisor.close()
        _shut_down_listener(address, thread)


@pytest.mark.perf_floor
def test_warm_tcp_throughput_floor(run_once, benchmark, floor_scale):
    rps, wire = run_once(_measure_tcp)
    floor = REQUIRED_WARM_TCP_RPS * floor_scale
    benchmark.extra_info["warm_tcp_requests_per_s"] = rps
    benchmark.extra_info["floor_requests_per_s"] = floor
    benchmark.extra_info["wire_messages_sent"] = wire.messages_sent
    benchmark.extra_info["wire_flushes"] = wire.flushes
    benchmark.extra_info["wire_coalescing_ratio"] = wire.coalescing_ratio
    print(
        f"\n# warm TCP {rps:8.0f} req/s "
        f"({wire.messages_sent} messages in {wire.flushes} flushes, "
        f"{wire.coalescing_ratio:.2f} msgs/flush)"
    )
    # The coalescer must actually coalesce: batched submission lands more
    # than one message per socket flush on average.
    assert wire.flushes < wire.messages_sent
    assert rps >= floor, (
        f"warm TCP serving ran at {rps:.0f} req/s; "
        f"expected at least {floor:.0f} req/s "
        f"({REQUIRED_WARM_TCP_RPS:.0f} x {floor_scale:g})"
    )
