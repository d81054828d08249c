"""ShardSupervisor end to end: real shard processes behind the router.

The acceptance property of the sharded tier lives here: requests for many
kernel families are served across two real shard processes, repeats are
answered warm *by the owning shard*, per-shard tuning-db replicas are
reconciled into the primary on close, and stats aggregate across the wire.
These tests spawn OS processes and are the slowest in the suite — one
module-scoped cluster serves all the read-mostly tests.
"""

import itertools
import time

import pytest

from repro.core.codegen.python_exec import CompiledKernel
from repro.errors import ReproError, ServingError
from repro.kernels.ntt_gen import compile_butterfly_kernel
from repro.ntt.planner import make_plan
from repro.serve import ClusterStats, ServedNTT, ServeRequest, ShardSupervisor
from repro.serve import protocol
from repro.tune import TuningDatabase, replica_path

SIZE = 16

#: Enough distinct kernel families that consistent hashing all but surely
#: spreads them over two shards (the hash is deterministic, so if the IR —
#: and with it the fingerprints — ever changes and this lands lopsided,
#: widen the mix).
FAMILY_MIX = [
    ServeRequest(kind="ntt", bits=64, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE, operation="gentleman_sande"),
    ServeRequest(kind="ntt", bits=256, size=SIZE),
    ServeRequest(kind="blas", bits=64, operation="vadd"),
    ServeRequest(kind="blas", bits=128, operation="vmul"),
    ServeRequest(kind="blas", bits=128, operation="vsub"),
    ServeRequest(kind="blas", bits=256, operation="axpy"),
]

#: A pruned width (384 bits fill 6 of 8 padded 64-bit limbs), Karatsuba.
DIRECTED_REQUEST = ServeRequest(
    kind="ntt", bits=384, size=SIZE, tune=False, multiplication="karatsuba"
)


def assert_matches_local_compile(result):
    """A shipped butterfly computes what a local compile and bigints do.

    Inputs are the directed edge values 0, 1, ``q-1`` and all-ones at each
    parameter's effective width; bigints are checked where the inputs lie
    below ``q``.  Widths come from the kernel's wire interface.
    """
    shipped = result.artifact
    assert isinstance(shipped, CompiledKernel)
    local = compile_butterfly_kernel(result.config)
    plan = make_plan(result.request.size, result.config.effective_modulus_bits)
    q, mu = plan.modulus, plan.mu
    widths = {
        name: effective or bits
        for name, bits, effective in shipped.interface()["original_params"]
    }
    edges = {name: (0, 1, q - 1, (1 << widths[name]) - 1) for name in ("x", "y", "w")}
    for x, y, w in itertools.product(edges["x"], edges["y"], edges["w"]):
        got = shipped(x=x, y=y, w=w, q=q, mu=mu)
        assert got == local(x=x, y=y, w=w, q=q, mu=mu)
        if max(x, y, w) < q:
            scaled = w * y % q
            assert got == {"x_out": (x + scaled) % q, "y_out": (x - scaled) % q}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    db = tmp_path_factory.mktemp("shard-dbs") / "tuning.json"
    supervisor = ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2)
    results = [supervisor.serve(request) for request in FAMILY_MIX]
    yield supervisor, results, db
    supervisor.close()


class TestRoutedServing:
    def test_all_families_served(self, cluster):
        supervisor, results, _ = cluster
        assert len(results) == len(FAMILY_MIX)
        for request, result in zip(FAMILY_MIX, results):
            assert result.request == request
            assert result.artifact is not None
            assert result.tuning is not None

    def test_traffic_crossed_both_shards(self, cluster):
        supervisor, _, _ = cluster
        routed = supervisor.routed_counts()
        assert sum(routed.values()) >= len(FAMILY_MIX)
        assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"

    def test_repeat_requests_are_warm(self, cluster):
        supervisor, _, _ = cluster
        for request in FAMILY_MIX[:3]:
            assert supervisor.serve(request).warm

    def test_unserved_device_is_refused_before_routing(self, cluster):
        supervisor, _, _ = cluster
        routed = supervisor.routed_counts()
        request = ServeRequest(kind="ntt", bits=128, size=SIZE, device="h100")
        with pytest.raises(ServingError, match="not served"):
            supervisor.submit(request)
        assert supervisor.routed_counts() == routed

    def test_routing_is_sticky(self, cluster):
        # The same family must keep hitting the same shard (that is what
        # makes its resident table worth anything).
        supervisor, _, _ = cluster
        shard = supervisor.router.route(FAMILY_MIX[0])
        for _ in range(3):
            assert supervisor.router.route(FAMILY_MIX[0]) == shard

    def test_local_shard_kernels_match_a_local_compile(self, cluster):
        supervisor, _, _ = cluster
        result = supervisor.serve(DIRECTED_REQUEST)
        assert result.artifact.kernel is None  # rebuilt from source + interface
        assert_matches_local_compile(result)

    def test_local_shards_use_the_socket_framing(self, cluster):
        # Spawned shards run over a socketpair with the framing TCP uses,
        # so their frames get the same MAX_FRAME_BYTES guard.
        supervisor, _, _ = cluster
        for handle in supervisor._handles.values():
            assert isinstance(handle.connection, protocol.StreamConnection)


class TestAggregatedStats:
    def test_totals_are_sums_of_shards(self, cluster):
        supervisor, _, _ = cluster
        stats = supervisor.stats()
        assert isinstance(stats, ClusterStats)
        assert len(stats.shards) == 2
        for field in ("requests", "warm_serves", "cold_serves", "resident_kernels"):
            per_shard = sum(getattr(shard, field) for shard in stats.shards)
            assert getattr(stats, field) == per_shard
        assert stats.requests >= len(FAMILY_MIX)
        assert stats.cold_serves >= len(FAMILY_MIX)

    def test_merged_percentiles_are_populated(self, cluster):
        supervisor, _, _ = cluster
        stats = supervisor.stats()
        assert stats.p95_latency_ms >= stats.p50_latency_ms > 0.0
        assert "cluster" in stats.report()

    def test_ping_reaches_every_shard(self, cluster):
        supervisor, _, _ = cluster
        pongs = supervisor.ping()
        assert set(pongs) == {0, 1}
        assert pongs[0].pid != pongs[1].pid  # real separate processes


class TestErrorRelay:
    def test_shard_side_failure_raises_repro_error_here(self, cluster):
        supervisor, _, _ = cluster
        bad = ServeRequest(kind="ntt", bits=128, size=SIZE, target="no-such-target")
        with pytest.raises(ReproError):
            supervisor.serve(bad)

    def test_invalid_request_fails_before_the_wire(self, cluster):
        supervisor, _, _ = cluster
        with pytest.raises(ReproError):
            supervisor.serve(ServeRequest(kind="ntt", bits=128, size=3))


class TestClientHook:
    def test_served_ntt_round_trips_through_the_cluster(self, cluster):
        supervisor, _, _ = cluster
        ntt = ServedNTT(supervisor, size=SIZE, bits=128)
        values = list(range(SIZE))
        assert ntt.inverse(ntt.forward(values)) == values


class TestLifecycle:
    def test_restart_after_shard_death(self):
        with ShardSupervisor(shards=2, devices=("rtx4090",), workers=2) as supervisor:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.serve(request)
            victim = supervisor.router.route(request)
            handle = supervisor._handles[victim]
            handle.process.kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                handle.restarts >= 1 and handle.alive()
            ):
                time.sleep(0.05)
            assert handle.restarts >= 1
            assert handle.alive()
            # The family is served again — cold (the respawned shard's
            # resident table is empty) or by a ring successor, but served.
            result = supervisor.serve(request)
            assert result.request == request

    def test_submit_after_close_rejected(self):
        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        supervisor.close()
        with pytest.raises(ServingError, match="closed"):
            supervisor.submit(ServeRequest(kind="ntt", bits=128, size=SIZE))

    def test_close_reconciles_replicas_into_primary(self, tmp_path):
        db = tmp_path / "tuning.json"
        supervisor = ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2)
        try:
            for request in FAMILY_MIX[:4]:
                supervisor.serve(request)
        finally:
            report = supervisor.close()
        assert report is not None
        assert db.exists()
        primary = TuningDatabase(db)
        assert len(primary) >= 4  # winners from *both* shards survived
        assert sum(report.adopted) >= 4

    def test_validation(self):
        with pytest.raises(ServingError, match="shard count"):
            ShardSupervisor(shards=0)
        with pytest.raises(ServingError, match="device"):
            ShardSupervisor(shards=1, devices=())


class TestRobustness:
    def test_cancelled_future_does_not_wedge_the_reader(self):
        # A client cancelling its future must not kill the reader thread
        # when the shard's reply arrives (regression: InvalidStateError).
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=2) as supervisor:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.submit(request).cancel()
            result = supervisor.submit(request).result(timeout=120)
            assert result.request == request

    def test_control_plane_traffic_is_counted_both_ways(self):
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=1) as supervisor:
            supervisor.ping()
            supervisor.stats()
            supervisor.ping()
            wire = supervisor.wire_snapshot()
            assert wire.messages_sent == wire.messages_received == 3
            assert wire.flushes == 3
            assert wire.bytes_sent > 0 and wire.bytes_received > 0

    def test_probe_of_a_dead_shard_raises_serving_error(self):
        # Probes must fail inside the ReproError hierarchy (the CLI's catch)
        # and clean up their pending entry — never a raw TimeoutError.
        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        try:
            handle = supervisor._handles[0]
            handle.process.kill()
            with pytest.raises(ServingError):
                supervisor._probe(handle, protocol.StatsCall, timeout=2.0)
            assert not handle.pending
        finally:
            supervisor.close()

    def test_corrupt_replica_is_quarantined_not_crash_looped(self, tmp_path):
        # A torn replica file (crashed writer) must not make the shard die
        # at startup forever: it is renamed *.corrupt and serving proceeds.
        db = tmp_path / "tuning.json"
        replica = replica_path(db, 0)
        replica.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        try:
            result = supervisor.serve(ServeRequest(kind="ntt", bits=128, size=SIZE))
            assert result.artifact is not None
            assert replica.with_name(replica.name + ".corrupt").exists()
            assert supervisor._handles[0].restarts == 0
        finally:
            supervisor.close()


class TestRestartBackoff:
    def test_schedule_first_attempt_is_immediate(self):
        # The documented schedule: attempt 1 immediate, then exponential
        # from 0.5 s, capped at the maximum — pinned so the spec and the
        # code cannot drift apart again.
        from repro.serve.supervisor import _RESTART_BACKOFF_MAX_S, _restart_backoff

        schedule = [_restart_backoff(attempt) for attempt in range(1, 11)]
        assert schedule == [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]
        assert schedule[0] == 0.0  # one crash must not stall traffic
        assert max(schedule) == _RESTART_BACKOFF_MAX_S
        # Monotone non-decreasing and capped forever after.
        assert schedule == sorted(schedule)
        assert _restart_backoff(100) == _RESTART_BACKOFF_MAX_S

    def test_first_respawn_happens_without_waiting(self):
        # End to end: a fresh handle's first recovery must respawn in the
        # same monitor tick (next_restart_at stays 0.0 until attempt 1).
        from repro.serve.supervisor import _restart_backoff

        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        try:
            handle = supervisor._handles[0]
            assert handle.next_restart_at == 0.0  # attempt 1 gated on nothing
            handle.process.kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and handle.restarts < 1:
                time.sleep(0.02)
            assert handle.restarts == 1
            # The *next* attempt (2) is scheduled 0.5 s out, not 1.0 s.
            slack = handle.next_restart_at - time.monotonic()
            assert slack <= _restart_backoff(2) + 0.1
        finally:
            supervisor.close()


class TestQuarantineAging:
    def test_close_drops_aged_quarantine_files(self, tmp_path, monkeypatch, caplog):
        # Quarantined replicas (*.corrupt) must not accumulate forever: a
        # supervisor close() ages them out and logs what it dropped.
        import logging

        import repro.tune.reconcile as reconcile_module

        monkeypatch.setattr(reconcile_module, "QUARANTINE_RETENTION_S", 0.0)
        db = tmp_path / "tuning.json"
        stale = replica_path(db, 7).with_name(replica_path(db, 7).name + ".corrupt")
        stale.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            supervisor.close()
        assert not stale.exists()
        assert any("quarantined replica" in record.message for record in caplog.records)

    def test_close_keeps_fresh_quarantine_files(self, tmp_path):
        # Inside the retention window the post-mortem evidence survives.
        db = tmp_path / "tuning.json"
        fresh = replica_path(db, 3).with_name(replica_path(db, 3).name + ".corrupt")
        fresh.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        supervisor.close()
        assert fresh.exists()
