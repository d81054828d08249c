"""One client call → one merged trace, across a real two-shard TCP cluster.

The tentpole acceptance property of ``repro.obs``: a traced request
entering the supervisor produces a single trace id whose spans cover the
supervisor's routing and both wire directions, the serving shard's work
(adopted via the envelope's additive ``trace`` field), and — on a cold
request whose lowering runs under the trace — the compiler's per-pass
child spans.  ``ShardSupervisor.drain_spans`` pulls all of it into one
process via the ``StatsCall`` span-drain mode, and the merged set exports
as a Chrome trace-event document that validates.

The ``trace`` field is *additive*: a call without it decodes as
untraced, and an untraced supervisor sends no ``trace`` key at all.
"""

import pytest

from repro.obs.export import chrome_trace, spans_from_chrome_trace
from repro.obs.trace import Tracer
from repro.serve import ServeRequest, ShardSupervisor
from repro.serve import protocol

from tests.serve.test_protocol import tamper_payload
from tests.serve.test_tcp_transport import start_listener, shut_down_listener

SIZE = 16

#: Cold and pinned (tune=False): lowering runs inside the traced request's
#: worker — the autotuner would otherwise pre-populate the lowering cache
#: from its own (untraced) batcher thread and hide the pass spans.
PINNED = ServeRequest(kind="ntt", bits=64, size=SIZE, tune=False)

#: A second family, tuned, to spread traffic across the ring.
TUNED = ServeRequest(kind="blas", bits=128, operation="vmul")


@pytest.fixture(scope="module")
def traced_cluster():
    """Two TCP shards, a force-tracing supervisor, and its drained spans."""
    listeners = [start_listener(shard_id=index) for index in range(2)]
    supervisor = ShardSupervisor(
        shards=0,
        devices=("rtx4090",),
        connect=tuple(address for address, _ in listeners),
        tracer=Tracer(sample_rate=1.0),
    )
    results = [supervisor.serve(PINNED), supervisor.serve(TUNED)]
    spans = supervisor.drain_spans()
    yield supervisor, results, spans
    supervisor.close()
    for address, thread in listeners:
        shut_down_listener(address, thread)


def spans_of(spans, request_index: int, supervisor):
    """The spans belonging to the ``request_index``-th request's trace."""
    roots = sorted(
        (one for one in spans if one.name == "cluster.request"),
        key=lambda one: one.ts_us,
    )
    trace_id = roots[request_index].trace_id
    return [one for one in spans if one.trace_id == trace_id]


class TestMergedTrace:
    def test_one_trace_id_per_request(self, traced_cluster):
        supervisor, results, spans = traced_cluster
        assert all(result.artifact is not None for result in results)
        roots = [one for one in spans if one.name == "cluster.request"]
        assert len(roots) == 2
        assert len({one.trace_id for one in roots}) == 2

    def test_trace_covers_supervisor_wire_and_shard(self, traced_cluster):
        supervisor, _, spans = traced_cluster
        trace = spans_of(spans, 0, supervisor)
        names = {one.name for one in trace}
        assert {"cluster.request", "route", "shard.serve"} <= names
        # Both wire directions, on both sides of the socket.
        assert sum(one.name == "wire.encode" for one in trace) == 2
        assert sum(one.name == "wire.decode" for one in trace) == 2
        # Supervisor and shard are different "processes" in the export
        # sense (shard spans carry the shard_id annotation).
        shard_ids = {
            one.args["shard_id"] for one in trace if "shard_id" in one.args
        }
        assert len(shard_ids) == 1

    def test_shard_root_is_a_child_of_the_supervisor_root(self, traced_cluster):
        supervisor, _, spans = traced_cluster
        trace = spans_of(spans, 0, supervisor)
        root = next(one for one in trace if one.name == "cluster.request")
        shard_root = next(one for one in trace if one.name == "shard.serve")
        assert shard_root.parent_id == root.span_id
        assert root.parent_id == ""

    def test_cold_pinned_request_has_compiler_pass_spans(self, traced_cluster):
        supervisor, _, spans = traced_cluster
        trace = spans_of(spans, 0, supervisor)
        names = {one.name for one in trace}
        assert "serve.compile" in names
        assert "compile.legalize" in names
        assert "compile.emit" in names
        assert any(name.startswith("pass.") for name in names)
        for one in trace:
            if one.name.startswith("pass.") or one.name.startswith("compile."):
                assert one.cat == "compile"

    def test_traffic_crossed_both_shards(self, traced_cluster):
        supervisor, _, spans = traced_cluster
        shard_ids = {
            one.args["shard_id"] for one in spans if "shard_id" in one.args
        }
        # Two families on a two-shard ring: the fixture mix is chosen to
        # spread; if routing ever co-locates both, the merged trace still
        # has every span — only this distribution check would weaken.
        assert shard_ids == {0, 1}

    def test_merged_spans_export_as_a_valid_chrome_trace(self, traced_cluster):
        _, _, spans = traced_cluster
        rebuilt = spans_from_chrome_trace(chrome_trace(spans))
        assert sorted(one.span_id for one in rebuilt) == sorted(
            one.span_id for one in spans
        )

    def test_drain_is_destructive(self, traced_cluster):
        supervisor, _, _ = traced_cluster
        assert supervisor.drain_spans() == ()


class TestAdditiveProtocolField:
    """The wire-format interop contracts, without needing an old binary."""

    CALL = protocol.ServeCall(request_id=7, request=PINNED)

    def test_untraced_envelope_is_byte_identical_to_pre_tracing_wire(self):
        # trace=None must not emit a key: an untraced supervisor's calls
        # are exactly what they were before tracing existed.
        data = protocol.encode_message(self.CALL)
        assert b'"trace"' not in data

    def test_payload_without_the_field_decodes_as_untraced(self):
        # What a supervisor that does not trace sends.
        data = protocol.encode_message(self.CALL)
        decoded = protocol.decode_message(data)
        assert decoded.trace is None
        assert decoded.request == PINNED

    def test_traced_envelope_roundtrips(self):
        field = {"id": "abc123", "span": "1f.1", "sampled": True}
        call = protocol.ServeCall(request_id=8, request=PINNED, trace=field)
        decoded = protocol.decode_message(protocol.encode_message(call))
        assert decoded.trace == field

    def test_malformed_trace_field_decodes_as_untraced(self):
        call = protocol.ServeCall(request_id=9, request=PINNED, trace={"id": "x"})
        decoded = protocol.decode_message(tamper_payload(call, trace="garbage"))
        assert decoded.trace is None

    def test_stats_call_drain_flag_defaults_off_for_old_peers(self):
        data = protocol.encode_message(protocol.StatsCall(request_id=1))
        assert b"drain_spans" in data  # new field rides the envelope
        decoded = protocol.decode_message(data)
        assert decoded.drain_spans is False

    def test_stats_reply_spans_ride_only_when_present(self):
        import dataclasses

        stats = protocol.ShardStats(samples=(), shard_id=0, pid=1)
        empty = protocol.StatsReply(request_id=1, stats=stats)
        assert b'"spans"' not in protocol.encode_message(empty)
        assert protocol.decode_message(protocol.encode_message(empty)).spans == ()

        loaded = dataclasses.replace(
            empty,
            spans=(
                {
                    "trace": "t",
                    "span": "s",
                    "parent": "",
                    "name": "n",
                    "cat": "serve",
                    "ts": 1.0,
                    "dur": 2.0,
                    "proc": 1,
                    "thread": 1,
                    "args": {},
                },
            ),
        )
        decoded = protocol.decode_message(protocol.encode_message(loaded))
        assert decoded.spans == loaded.spans
