"""Sharded serving walkthrough: N server processes behind one router.

One :class:`KernelServer` process eventually saturates; the
``repro.serve.shard`` tier scales horizontally by adding processes:

1. start a :class:`ShardSupervisor` — it spawns two shard processes, each a
   full kernel server owning its own tuning-database *replica* file,
2. serve a mix of kernel families: the supervisor consistent-hashes each
   request's (kernel-family fingerprint, device) onto a shard, so one
   family's traffic always lands on the shard holding its resident table,
3. repeat a request and watch it come back warm — from the owning shard,
   over the wire protocol (the kernel crosses as its generated source plus
   a small interface, and the supervisor rebuilds it executable),
4. print the cluster stats: per-shard counters merged into global
   warm/cold/dedup counts and p50/p95 from summed latency histograms,
5. close the cluster: shards drain, and their replicas are reconciled into
   the primary database by merge-on-save — winners tuned by *any* shard
   survive into the next deployment's warmup.

Run with:  python examples/shard_cluster.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.serve import ServedNTT, ServeRequest, ShardSupervisor
from repro.tune import TuningDatabase

SIZE = 256
SHARDS = 2


def main() -> None:
    db_path = Path(tempfile.gettempdir()) / "repro_shard_cluster.json"
    db_path.unlink(missing_ok=True)

    # 1. Two real shard processes, each with its own tuning-db replica.
    print(f"=== spawn {SHARDS} shard processes ===")
    supervisor = ShardSupervisor(shards=SHARDS, db=db_path, devices=("rtx4090",))
    for shard_id, pong in sorted(supervisor.ping().items()):
        print(f"shard {shard_id}: alive (pid {pong.pid})")

    # 2. Mixed families: the router spreads them by (fingerprint, device).
    print()
    print("=== routed serving ===")
    mix = [
        ServeRequest(kind="ntt", bits=128, size=SIZE),
        ServeRequest(kind="ntt", bits=256, size=SIZE),
        ServeRequest(kind="blas", bits=128, operation="vmul"),
        ServeRequest(kind="blas", bits=256, operation="vadd"),
    ]
    for request in mix:
        shard_id = supervisor.router.route(request)
        result = supervisor.serve(request)
        print(
            f"shard {shard_id} served {request.workload().key}: "
            f"{result.config.label()} ({'warm' if result.warm else 'cold'})"
        )

    # 3. Warm repeat: answered by the owning shard's resident table.
    result = supervisor.serve(mix[0])
    print(f"repeat of {mix[0].workload().key}: warm={result.warm}")

    # The classic frontends work against a supervisor unchanged.
    ntt = ServedNTT(supervisor, size=SIZE, bits=128)
    assert ntt.compiled_kernel.kernel is None  # rebuilt from source + interface
    values = list(range(SIZE))
    assert ntt.inverse(ntt.forward(values)) == values
    print("ServedNTT round trip ok (butterfly rebuilt from its source and interface)")

    # 4. Cross-shard observability.
    print()
    print("=== cluster stats ===")
    print(supervisor.stats().report())

    # 5. Shutdown reconciles every replica into the primary database.
    print()
    print("=== reconcile on close ===")
    report = supervisor.close()
    print(report.report())
    print(f"primary now serves warmup for all shards: {len(TuningDatabase(db_path))} records")


if __name__ == "__main__":
    main()
