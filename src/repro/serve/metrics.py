"""Serving observability: request outcomes as registry series, and their views.

A :class:`ServerMetrics` lives inside every :class:`~repro.serve.KernelServer`
and classifies each request into exactly one of four outcomes:

* **warm** — answered from the server's resident table: no compilation, no
  tuning-database access, no worker dispatch (the steady state after warmup);
* **dedup** — attached to an identical request already in flight, sharing its
  single compilation;
* **cold** — went through the full path (tuning lookup/search + compilation);
* **error** — the request raised.

Each outcome is recorded once into a :class:`~repro.obs.registry.Registry`,
labelled by ``tenant``; warm and cold latencies go into the
``serve_latency_ms`` histogram, labelled by ``class`` too (dedup'd requests
resolve with their leader).  Totals and per-tenant slices are the same
series, summed or filtered.  Everything counts since the server started.

:class:`MetricsSnapshot` is the read-only view of a sample list that every
stats surface shares: a server's ``--stats`` report, a shard's stats reply
(:class:`~repro.serve.protocol.ShardStats`), the cluster rollup
(:class:`~repro.serve.supervisor.ClusterStats`) and each ``/metrics`` page
(:meth:`MetricsSnapshot.render`).  :class:`WireSnapshot` reads the
supervisor's ``wire_*`` series.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.obs.registry import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    HISTOGRAM_BUCKET_BOUNDS_MS,
    Registry,
    merge,
    percentile_from_histogram,
    render,
)
from repro.tenancy import DEFAULT_TENANT

__all__ = [
    "HELP",
    "MetricsSnapshot",
    "ServerMetrics",
    "WireSnapshot",
]

#: ``# HELP`` text of every family the serve tier renders.
HELP = {
    "requests_total": "Requests received.",
    "warm_serves_total": "Requests answered from the resident table.",
    "cold_serves_total": "Requests that ran tuning and compilation.",
    "dedup_hits_total": "Requests that joined an in-flight twin.",
    "errors_total": "Requests that raised.",
    "in_flight": "Requests admitted at the front door and not yet completed.",
    "quota_rejections_total": "Submissions refused over a tenant's admission quota.",
    "tune_batches_total": "Tuning micro-batches executed.",
    "batched_tunes_total": "Tuning requests inside those batches.",
    "queue_depth": "Requests submitted but not yet fulfilled.",
    "resident_kernels": "Served results held resident.",
    "serve_latency_ms": "Serve latency by class since start (ms buckets).",
    "latency_p50_ms": "Median serve latency (bucket upper bound).",
    "latency_p95_ms": "95th-percentile serve latency (bucket upper bound).",
    "tenant_warm_ratio": "Warm fraction of served requests, per tenant.",
    "tenant_latency_p50_ms": "Median serve latency, per tenant (bucket upper bound).",
    "tenant_latency_p95_ms": "95th-percentile serve latency, per tenant (bucket upper bound).",
    "shards": "Live shards reporting.",
    "shard_requests_total": "Requests served per shard.",
    "wire_messages_sent_total": "Request messages encoded for shards.",
    "wire_messages_received_total": "Reply messages decoded.",
    "wire_flushes_total": "Transport flushes carrying those messages.",
    "wire_bytes_sent_total": "Encoded request bytes written.",
    "wire_bytes_received_total": "Reply bytes read.",
    "wire_encode_seconds_total": "Wall time in message encoding.",
    "wire_decode_seconds_total": "Wall time in reply decoding.",
    "wire_route_seconds_total": "Wall time in shard routing.",
    "wire_flush_seconds_total": "Wall time in transport flushes.",
}

#: A server's per-request outcome counters (tenant-block field -> series),
#: each labelled by tenant.
_OUTCOMES = {
    "requests": "requests_total",
    "warm_serves": "warm_serves_total",
    "cold_serves": "cold_serves_total",
    "dedup_hits": "dedup_hits_total",
    "errors": "errors_total",
}

#: Every tenant-labelled counter and gauge, outcomes plus the supervisor's
#: admission state; ``/metrics`` also renders each as ``tenant_<series>``.
_TENANT_SERIES = {**_OUTCOMES, "in_flight": "in_flight", "rejected": "quota_rejections_total"}
HELP.update(
    {f"tenant_{name}": f"{HELP[name][:-1]}, per tenant." for name in _TENANT_SERIES.values()}
)


def _matches(labels: dict, wanted: dict) -> bool:
    return all(labels.get(key) == value for key, value in wanted.items())


def _total(name: str) -> property:
    """A view property: series ``name`` summed over every label set."""
    return property(lambda self: self.value(name), doc=f"{HELP[name]} (``{name}``)")


def _quantile(q: float, **labels) -> property:
    """A view property: the ``q``-quantile (ms) of the matching latencies."""
    return property(
        lambda self: percentile_from_histogram(self.histogram(**labels), q),
        doc=f"The {q:g}-quantile of ``serve_latency_ms`` {labels or ''} (ms).",
    )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A read-only view of registry samples (see :mod:`repro.obs.registry`).

    Each counter and gauge attribute (``requests``, ``warm_serves``, ...)
    is its series summed over tenants; its docstring is the series'
    :data:`HELP` text.  The latency percentiles are read off the
    ``serve_latency_ms`` histograms (warm and cold together, or one
    class), as the upper bound of the bucket holding the nearest-rank
    sample.  :attr:`tenants` holds per-tenant blocks once a non-default
    tenant has been seen.
    """

    samples: tuple = ()

    requests = _total("requests_total")
    warm_serves = _total("warm_serves_total")
    cold_serves = _total("cold_serves_total")
    dedup_hits = _total("dedup_hits_total")
    errors = _total("errors_total")
    tune_batches = _total("tune_batches_total")
    batched_tunes = _total("batched_tunes_total")
    queue_depth = _total("queue_depth")
    resident_kernels = _total("resident_kernels")
    p50_latency_ms = _quantile(0.50)
    p95_latency_ms = _quantile(0.95)
    warm_p50_latency_ms = _quantile(0.50, **{"class": "warm"})
    cold_p50_latency_ms = _quantile(0.50, **{"class": "cold"})

    def value(self, name: str, **labels):
        """Counter or gauge ``name`` summed over the series matching ``labels``."""
        return sum(
            value
            for kind, series, held, value in self.samples
            if series == name and kind != HISTOGRAM and _matches(held, labels)
        )

    def histogram(self, **labels) -> tuple[int, ...]:
        """``serve_latency_ms`` bucket counts summed over matching series."""
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        for kind, name, held, value in self.samples:
            if name == "serve_latency_ms" and _matches(held, labels):
                counts = [a + b for a, b in zip(counts, value["counts"])]
        return tuple(counts)

    @property
    def warm_rate(self) -> float:
        """Fraction of served requests answered warm (0.0 when unused)."""
        served = self.warm_serves + self.cold_serves
        return self.warm_serves / served if served else 0.0

    def _tenant_block(self, tenant: str) -> dict:
        """One tenant's outcome counts, admission state and percentiles."""
        block = {
            field: self.value(name, tenant=tenant) for field, name in _TENANT_SERIES.items()
        }
        served = block["warm_serves"] + block["cold_serves"]
        block["warm_ratio"] = block["warm_serves"] / served if served else 0.0
        buckets = self.histogram(tenant=tenant)
        for q in (50, 95, 99):
            block[f"p{q}_latency_ms"] = percentile_from_histogram(buckets, q / 100)
        return block

    @property
    def tenants(self) -> dict[str, dict]:
        """Tenant id → its outcome counts, admission state, warm ratio and
        p50/p95/p99, once a non-default tenant shows up."""
        seen = {labels["tenant"] for _, _, labels, _ in self.samples if "tenant" in labels}
        if seen <= {DEFAULT_TENANT}:
            return {}
        return {tenant: self._tenant_block(tenant) for tenant in sorted(seen)}

    def exposition(self) -> list[list]:
        """The ``/metrics`` samples: totals, percentiles and tenant slices.

        Every series renders summed over tenants under its own name.  Once
        a non-default tenant appears, each tenant-labelled counter and
        gauge also renders per tenant as ``tenant_<name>``, and each
        tenant's warm ratio and p50/p95 as gauges.
        """
        totals = merge(
            [
                [kind, name, {k: v for k, v in labels.items() if k != "tenant"}, value]
                for kind, name, labels, value in self.samples
            ]
        )
        samples = totals + [
            [GAUGE, "latency_p50_ms", {}, self.p50_latency_ms],
            [GAUGE, "latency_p95_ms", {}, self.p95_latency_ms],
        ]
        tenants = self.tenants
        if tenants:
            samples += [
                [kind, f"tenant_{name}", labels, value]
                for kind, name, labels, value in self.samples
                if "tenant" in labels and kind != HISTOGRAM
            ]
        for tenant, block in tenants.items():
            for field, name in (
                ("warm_ratio", "tenant_warm_ratio"),
                ("p50_latency_ms", "tenant_latency_p50_ms"),
                ("p95_latency_ms", "tenant_latency_p95_ms"),
            ):
                samples.append([GAUGE, name, {"tenant": tenant}, block[field]])
        return samples

    def render(self) -> str:
        """The Prometheus text exposition served on ``/metrics``."""
        return render(self.exposition(), HELP)

    def _headline(self) -> str:
        """The start of the report's first line, naming what it counts."""
        return f"requests      {self.requests} "

    def report(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        lines = [
            f"{self._headline()}"
            f"(warm {self.warm_serves}, cold {self.cold_serves}, "
            f"dedup {self.dedup_hits}, errors {self.errors})",
            f"warm rate     {self.warm_rate * 100:.1f}%",
            f"tuning        {self.batched_tunes} tunes in {self.tune_batches} batches",
            f"queue depth   {self.queue_depth} in flight, "
            f"{self.resident_kernels} resident kernels",
            f"latency       p50 ≤{self.p50_latency_ms:.3f} ms, "
            f"p95 ≤{self.p95_latency_ms:.3f} ms "
            f"(warm p50 ≤{self.warm_p50_latency_ms:.3f} ms, "
            f"cold p50 ≤{self.cold_p50_latency_ms:.3f} ms)",
        ]
        for tenant, block in self.tenants.items():
            lines.append(
                f"  tenant {tenant}: {block['requests']} requests, "
                f"warm {block['warm_serves']}, "
                f"cold {block['cold_serves']}, "
                f"errors {block['errors']}, "
                f"rejected {block['rejected']}, "
                f"p50 ≤{block['p50_latency_ms']:.3f} ms, "
                f"p95 ≤{block['p95_latency_ms']:.3f} ms"
            )
        return "\n".join(lines)


def _wire_series(field: str) -> str:
    """The ``wire_*`` series behind a :class:`WireSnapshot` field."""
    unit = f"{field[:-2]}_seconds" if field.endswith("_s") else field
    return f"wire_{unit}_total"


@dataclass(frozen=True)
class WireSnapshot:
    """The supervisor's wire-path costs, read off its ``wire_*`` series.

    Attributes:
        messages_sent: request messages encoded and enqueued for shards.
        messages_received: reply messages decoded from shards.
        flushes: socket flush operations that carried those messages
            (coalescing shows up as ``messages_sent / flushes`` > 1).
        bytes_sent: encoded request bytes handed to transports.
        bytes_received: reply bytes pulled off transports.
        encode_s: wall time spent in ``encode_message`` on the warm path.
        decode_s: wall time spent in ``decode_message`` on reply frames.
        route_s: wall time spent picking a shard in the router.
        flush_s: wall time spent writing/flushing batches to transports.
    """

    messages_sent: int = 0
    messages_received: int = 0
    flushes: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    encode_s: float = 0.0
    decode_s: float = 0.0
    route_s: float = 0.0
    flush_s: float = 0.0

    @classmethod
    def from_samples(cls, samples) -> "WireSnapshot":
        """The ``wire_*`` totals of a sample list."""
        view = MetricsSnapshot(tuple(samples))
        return cls(
            **{
                field.name: view.value(_wire_series(field.name))
                for field in dataclasses.fields(cls)
            }
        )

    @property
    def coalescing_ratio(self) -> float:
        """Mean messages per flush (1.0 = no batching; 0.0 when unused)."""
        return self.messages_sent / self.flushes if self.flushes else 0.0

    def delta(self, since: "WireSnapshot") -> "WireSnapshot":
        """The activity *between* two snapshots of the same supervisor.

        Snapshots are monotonic totals since the supervisor started, so a
        caller polling ``--stats`` repeatedly must difference consecutive
        snapshots rather than re-reading the totals as fresh activity:

            before = supervisor.wire_snapshot()
            ...
            window = supervisor.wire_snapshot().delta(before)
        """
        return WireSnapshot(
            *(
                after - before
                for after, before in zip(
                    dataclasses.astuple(self), dataclasses.astuple(since)
                )
            )
        )

    def report(self) -> str:
        """Human-readable one-liner for the cluster stats report."""
        return (
            f"wire          {self.messages_sent} sent / "
            f"{self.messages_received} recv in {self.flushes} flushes "
            f"({self.coalescing_ratio:.2f} msg/flush, "
            f"{self.bytes_sent} B out, {self.bytes_received} B in; "
            f"encode {self.encode_s * 1e3:.1f} ms, "
            f"decode {self.decode_s * 1e3:.1f} ms, "
            f"route {self.route_s * 1e3:.1f} ms, "
            f"flush {self.flush_s * 1e3:.1f} ms)"
        )


class ServerMetrics:
    """Thread-safe outcome recording behind :meth:`KernelServer.metrics_snapshot`.

    Every recording method takes the request's tenant and records one
    series update (plus one histogram observation for a warm or cold
    serve) into :attr:`registry`.
    """

    def __init__(self) -> None:
        self.registry = Registry()
        default = {"tenant": DEFAULT_TENANT}
        for name in _OUTCOMES.values():
            self.registry.declare(COUNTER, name, default)
        for served in ("warm", "cold"):
            self.registry.declare(HISTOGRAM, "serve_latency_ms", {**default, "class": served})
        self.registry.declare(COUNTER, "tune_batches_total")
        self.registry.declare(COUNTER, "batched_tunes_total")

    def record_request(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one incoming request (before its outcome is known)."""
        self.registry.inc("requests_total", labels={"tenant": tenant})

    def _record_serve(self, served: str, latency_s: float, tenant: str) -> None:
        self.registry.inc(f"{served}_serves_total", labels={"tenant": tenant})
        self.registry.observe(
            "serve_latency_ms", latency_s * 1e3, {"class": served, "tenant": tenant}
        )

    def record_warm(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one resident-table serve."""
        self._record_serve("warm", latency_s, tenant)

    def record_cold(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one full-path (tune + compile) serve."""
        self._record_serve("cold", latency_s, tenant)

    def record_dedup(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one request attached to an in-flight identical request."""
        self.registry.inc("dedup_hits_total", labels={"tenant": tenant})

    def record_error(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one failed request."""
        self.registry.inc("errors_total", labels={"tenant": tenant})

    def record_tune_batch(self, size: int) -> None:
        """Count one executed tuning micro-batch of ``size`` requests."""
        self.registry.inc("tune_batches_total")
        self.registry.inc("batched_tunes_total", size)

    def snapshot(self, queue_depth: int = 0, resident_kernels: int = 0) -> MetricsSnapshot:
        """The registry's samples as a :class:`MetricsSnapshot`.

        ``queue_depth`` and ``resident_kernels`` are gauges owned by the
        server (they are sizes of its tables), set at snapshot time.
        """
        self.registry.set("queue_depth", queue_depth)
        self.registry.set("resident_kernels", resident_kernels)
        return MetricsSnapshot(tuple(self.registry.samples()))
