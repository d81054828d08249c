"""Every ``/metrics`` endpoint, end to end: family sets and counter semantics.

Three endpoints render the one registry exposition: the single server,
a ``--listen`` shard (its own HTTP scrape surface) and the supervisor
(the merge of its shards' samples with its own series).  Each must keep
serving every metric family it ever served, under the same name, type and
label names — scrapers and dashboards key on all three — so the family
sets are pinned here.  The cluster's latency histogram must behave as a
Prometheus histogram past any sample window: its ``_count`` equals the
warm-serve counter and no ``_bucket`` goes down between scrapes.
"""

import queue
import re
import socket
import threading
import urllib.request

import pytest

from repro.serve import KernelServer, ServeRequest, ShardSupervisor, serve_shard_tcp
from repro.tenancy import TenantConfig
from tests.serve.test_tcp_transport import shut_down_listener

REQUEST = ServeRequest(kind="ntt", bits=128, size=16)

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"

#: What every endpoint serves.
COMMON = {
    "repro_requests_total": (COUNTER, ()),
    "repro_warm_serves_total": (COUNTER, ()),
    "repro_cold_serves_total": (COUNTER, ()),
    "repro_dedup_hits_total": (COUNTER, ()),
    "repro_errors_total": (COUNTER, ()),
    "repro_tune_batches_total": (COUNTER, ()),
    "repro_batched_tunes_total": (COUNTER, ()),
    "repro_queue_depth": (GAUGE, ()),
    "repro_resident_kernels": (GAUGE, ()),
    "repro_latency_p50_ms": (GAUGE, ()),
    "repro_latency_p95_ms": (GAUGE, ()),
    "repro_serve_latency_ms": (HISTOGRAM, ("class",)),
}

#: What every endpoint adds once a non-default tenant has been served.
TENANT = {
    "repro_tenant_requests_total": (COUNTER, ("tenant",)),
    "repro_tenant_warm_serves_total": (COUNTER, ("tenant",)),
    "repro_tenant_cold_serves_total": (COUNTER, ("tenant",)),
    "repro_tenant_dedup_hits_total": (COUNTER, ("tenant",)),
    "repro_tenant_errors_total": (COUNTER, ("tenant",)),
    "repro_tenant_warm_ratio": (GAUGE, ("tenant",)),
    "repro_tenant_latency_p50_ms": (GAUGE, ("tenant",)),
    "repro_tenant_latency_p95_ms": (GAUGE, ("tenant",)),
}

#: What the supervisor adds: shard breakdown, wire profile, admission.
SUPERVISOR = {
    "repro_shards": (GAUGE, ()),
    "repro_shard_requests_total": (COUNTER, ("shard",)),
    "repro_wire_messages_sent_total": (COUNTER, ()),
    "repro_wire_messages_received_total": (COUNTER, ()),
    "repro_wire_flushes_total": (COUNTER, ()),
    "repro_wire_bytes_sent_total": (COUNTER, ()),
    "repro_wire_bytes_received_total": (COUNTER, ()),
    "repro_wire_encode_seconds_total": (COUNTER, ()),
    "repro_wire_decode_seconds_total": (COUNTER, ()),
    "repro_wire_route_seconds_total": (COUNTER, ()),
    "repro_wire_flush_seconds_total": (COUNTER, ()),
    "repro_in_flight": (GAUGE, ()),
    "repro_quota_rejections_total": (COUNTER, ()),
}

SUPERVISOR_TENANT = {
    "repro_tenant_in_flight": (GAUGE, ("tenant",)),
    "repro_tenant_quota_rejections_total": (COUNTER, ("tenant",)),
}

LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")


def parse(text: str) -> tuple[dict, dict]:
    """(family -> (type, label names), sample line -> value) of an exposition."""
    families, values = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            families[name] = (kind, set())
        elif line and not line.startswith("#"):
            name, labels, value = LINE.match(line).groups()
            values[line.rsplit(" ", 1)[0]] = float(value)
            family = name if name in families else re.sub(r"_(bucket|sum|count)$", "", name)
            keys = set(re.findall(r'([a-zA-Z_]+)="', labels or "")) - {"le"}
            families[family][1].update(keys)
    return {name: (kind, tuple(sorted(keys))) for name, (kind, keys) in families.items()}, values


def scrape(port: int) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as response:
        return response.read().decode("utf-8")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestFamilySets:
    def test_single_server(self):
        with KernelServer(devices=("rtx4090",), workers=2) as server:
            server.serve(REQUEST)
            assert parse(server.metrics_snapshot().render())[0] == COMMON
            server.serve(REQUEST, tenant="acme")
            assert parse(server.metrics_snapshot().render())[0] == COMMON | TENANT

    def test_listen_shard_scrape(self):
        port = free_port()
        bound: queue.Queue = queue.Queue()
        thread = threading.Thread(
            target=serve_shard_tcp,
            kwargs=dict(port=0, workers=2, on_bound=bound.put, metrics_port=port),
            daemon=True,
        )
        thread.start()
        address = bound.get(timeout=30)
        try:
            assert parse(scrape(port))[0] == COMMON
            with ShardSupervisor(shards=0, connect=(address,), workers=2) as supervisor:
                supervisor.serve(REQUEST, tenant="acme")
            families, values = parse(scrape(port))
            assert families == COMMON | TENANT
            assert values['repro_tenant_requests_total{tenant="acme"}'] == 1
        finally:
            shut_down_listener(address, thread)

    def test_supervisor(self):
        with ShardSupervisor(shards=1, workers=2) as supervisor:
            assert parse(supervisor.stats().render())[0] == COMMON | SUPERVISOR
            supervisor.serve(REQUEST)
            assert parse(supervisor.stats().render())[0] == COMMON | SUPERVISOR
            # A configured tenant's admission series show before its first
            # request, which brings in the tenant slices.
            supervisor.tenants.register(TenantConfig(tenant="limited", max_in_flight=1))
            families = parse(supervisor.stats().render())[0]
            assert families == COMMON | SUPERVISOR | TENANT | SUPERVISOR_TENANT
            supervisor.serve(REQUEST, tenant="limited")
            families, values = parse(supervisor.stats().render())
            assert families == COMMON | SUPERVISOR | TENANT | SUPERVISOR_TENANT
            assert values['repro_tenant_requests_total{tenant="limited"}'] == 1


def test_tenant_label_values_are_escaped():
    with KernelServer(devices=("rtx4090",), workers=2) as server:
        server.serve(REQUEST, tenant='x"y')
        text = server.metrics_snapshot().render()
    assert 'repro_tenant_requests_total{tenant="x\\"y"} 1' in text
    assert 'tenant="x"y"' not in text


def test_cluster_latency_histogram_counts_every_serve_since_start():
    """Past 4,096 warm serves the histogram still counts every one of them."""
    with ShardSupervisor(shards=1, workers=2) as supervisor:
        supervisor.serve(REQUEST)  # the one cold serve
        scrapes = []
        for batch in (4_200, 300):
            futures = [supervisor.submit(REQUEST) for _ in range(batch)]
            assert all(future.result(timeout=120).warm for future in futures)
            scrapes.append(parse(supervisor.stats().render())[1])
    for values in scrapes:
        assert (
            values['repro_serve_latency_ms_count{class="warm"}']
            == values["repro_warm_serves_total"]
        )
        assert values['repro_serve_latency_ms_count{class="cold"}'] == 1
        assert values['repro_serve_latency_ms_sum{class="warm"}'] > 0
        assert values['repro_serve_latency_ms_sum{class="cold"}'] > 0
    assert scrapes[1]["repro_warm_serves_total"] == 4_500
    before, after = scrapes
    buckets = [key for key in before if key.startswith("repro_serve_latency_ms_bucket")]
    assert len(buckets) == 2 * 26
    for key in buckets:
        assert after[key] >= before[key], key
