"""Traffic replay harness: workload suites, deterministic traces, SLO reports.

The measurement substrate for the ROADMAP's "millions of users" claims:
instead of per-figure microbenchmarks, :mod:`repro.loadgen` replays *mixed*
served traffic — the FHE and ZKP example pipelines plus RNS conversion
chains, batched small-prime NTTs, and BLAS streams — against a real
serving tier and reports whether it held its service-level objectives.

Four layers, each importable on its own:

* :mod:`repro.loadgen.suites` — the **workload suite registry**: named
  bundles of :class:`~repro.serve.server.ServeRequest` specs (what the FHE
  pipeline or a ZKP commitment actually asks a cluster for).
* :mod:`repro.loadgen.trace` — the **deterministic trace generator**: a
  seeded RNG draws a weighted suite mix into a timestamped request trace
  (open-loop fixed-rate or closed-loop N-client arrivals) that serializes
  to canonical JSON, so the same seed always replays byte-identically.
* :mod:`repro.loadgen.replay` — the **replay engine**: drives a
  :class:`~repro.serve.supervisor.ShardSupervisor` (local socketpairs or TCP
  ``--connect``) or a single :class:`~repro.serve.KernelServer` through
  the trace, honoring per-request deadlines, with an optional
  fault-injection hook that kills a shard mid-replay.
* :mod:`repro.loadgen.report` — the **SLO reporter**: client-observed
  p50/p95/p99, warm ratio, error and deadline-miss rates, and throughput,
  merged with :class:`~repro.serve.supervisor.ClusterStats` histograms and
  the :class:`~repro.serve.metrics.WireSnapshot` delta, appended to the
  ``benchmarks/BENCH_<sha>.json`` artifact CI uploads per commit.

``python -m repro.loadgen`` is the operator front door; see
``docs/workloads.md`` for the suite catalogue and trace format.
"""

from __future__ import annotations

from repro.loadgen.report import SLOReport, append_loadgen_report, build_slo_report
from repro.loadgen.replay import ReplayFault, ReplayResult, RequestOutcome, replay
from repro.loadgen.suites import WorkloadSuite, get_suite, resolve_mix, suite_names
from repro.loadgen.trace import (
    TenantLoad,
    Trace,
    TraceConfig,
    TraceEvent,
    generate_trace,
    parse_tenants,
)

__all__ = [
    "WorkloadSuite",
    "get_suite",
    "suite_names",
    "resolve_mix",
    "TenantLoad",
    "Trace",
    "TraceConfig",
    "TraceEvent",
    "generate_trace",
    "parse_tenants",
    "replay",
    "ReplayFault",
    "ReplayResult",
    "RequestOutcome",
    "SLOReport",
    "build_slo_report",
    "append_loadgen_report",
]
