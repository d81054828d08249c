"""Serving observability: request counters and latency percentiles.

A :class:`ServerMetrics` lives inside every :class:`~repro.serve.KernelServer`
and classifies each request into exactly one of four outcomes:

* **warm** — answered from the server's resident table: no compilation, no
  tuning-database access, no worker dispatch (the steady state after warmup);
* **dedup** — attached to an identical request already in flight, sharing its
  single compilation;
* **cold** — went through the full path (tuning lookup/search + compilation);
* **error** — the request raised.

Latencies are recorded for warm and cold serves (dedup'd requests resolve
with their leader); :meth:`snapshot` folds everything into an immutable
:class:`MetricsSnapshot` with p50/p95 latency, suitable for logging or the
``--stats`` CLI flag.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.tenancy import DEFAULT_TENANT

__all__ = [
    "MetricsSnapshot",
    "ServerMetrics",
    "WireProfile",
    "WireSnapshot",
    "HISTOGRAM_BUCKET_BOUNDS_MS",
    "latency_histogram",
    "percentile_from_histogram",
]

#: Latency samples retained per class (oldest dropped first); bounds memory
#: on a long-running server while keeping the percentiles current.
LATENCY_WINDOW = 4096

#: Upper bucket bounds (milliseconds) of the fixed latency histogram the
#: wire protocol ships between shards: log-2 spaced from 1 µs to ~17 s, with
#: one implicit overflow bucket at the end.  The bounds being *fixed* is what
#: makes per-shard histograms directly summable at the supervisor.
HISTOGRAM_BUCKET_BOUNDS_MS = tuple(0.001 * (1 << i) for i in range(25))


def _percentile(samples: tuple[float, ...], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method, or 0.0."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_histogram(samples_s: tuple[float, ...]) -> tuple[int, ...]:
    """Bucket latency samples (seconds) into the fixed histogram.

    Returns one count per bound in :data:`HISTOGRAM_BUCKET_BOUNDS_MS` plus a
    final overflow bucket.  Histograms from different servers can be merged
    by element-wise addition, which is how the shard supervisor computes
    global percentiles without shipping raw samples.
    """
    counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
    for sample in samples_s:
        ms = sample * 1e3
        for index, bound in enumerate(HISTOGRAM_BUCKET_BOUNDS_MS):
            if ms <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    return tuple(counts)


def percentile_from_histogram(counts: tuple[int, ...], q: float) -> float:
    """Approximate the ``q``-quantile (ms) of a bucketed latency histogram.

    ``q`` is a fraction in ``[0.0, 1.0]`` — passing a percent (``q=95``)
    raises ``ValueError`` instead of silently reporting the maximum bucket.
    ``q=0.0`` reports the first occupied bucket's bound (the minimum, up to
    bucket resolution) and ``q=1.0`` the last occupied one; an empty (or
    all-zero) histogram reports 0.0.  Counts beyond the known bounds —
    including the overflow bucket — report the largest *finite* bound, so
    the result never indexes past :data:`HISTOGRAM_BUCKET_BOUNDS_MS`.

    Returns the upper bound of the bucket holding the nearest-rank sample.
    The approximation error is bounded by the log-2 bucket spacing, which
    is plenty for the p50/p95 the stats report shows.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be a fraction in [0, 1], got {q!r}")
    total = sum(counts)
    if not total:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            bounded = min(index, len(HISTOGRAM_BUCKET_BOUNDS_MS) - 1)
            return HISTOGRAM_BUCKET_BOUNDS_MS[bounded]
    # Unreachable while rank <= total, but a malformed counts iterable
    # (negative entries) must still not index past the last bucket.
    return HISTOGRAM_BUCKET_BOUNDS_MS[-1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One immutable view of a server's counters.

    Attributes:
        requests: every request received (sum of the four outcome classes).
        warm_serves: requests answered from the resident table.
        cold_serves: requests that went through tuning + compilation.
        dedup_hits: requests that shared an in-flight identical request.
        errors: requests that raised.
        tune_batches: micro-batches the tuning batcher executed.
        batched_tunes: tuning requests processed inside those batches.
        queue_depth: in-flight (submitted, unfinished) requests right now.
        resident_kernels: fully-served results held in the resident table.
        p50_latency_ms: median serve latency (warm + cold samples).
        p95_latency_ms: 95th-percentile serve latency.
        warm_p50_latency_ms: median latency of warm serves alone.
        cold_p50_latency_ms: median latency of cold serves alone.
        tenants: per-tenant outcome breakdown (see
            :meth:`ServerMetrics.tenant_breakdown`); empty when only the
            default tenant has been seen, so untenanted deployments are
            byte-identical to pre-tenancy snapshots on the wire.
    """

    requests: int
    warm_serves: int
    cold_serves: int
    dedup_hits: int
    errors: int
    tune_batches: int
    batched_tunes: int
    queue_depth: int
    resident_kernels: int
    p50_latency_ms: float
    p95_latency_ms: float
    warm_p50_latency_ms: float
    cold_p50_latency_ms: float
    tenants: dict = field(default_factory=dict)

    @property
    def warm_rate(self) -> float:
        """Fraction of served requests answered warm (0.0 when unused)."""
        served = self.warm_serves + self.cold_serves
        return self.warm_serves / served if served else 0.0

    def report(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        return "\n".join(
            [
                f"requests      {self.requests} "
                f"(warm {self.warm_serves}, cold {self.cold_serves}, "
                f"dedup {self.dedup_hits}, errors {self.errors})",
                f"warm rate     {self.warm_rate * 100:.1f}%",
                f"tuning        {self.batched_tunes} tunes in {self.tune_batches} batches",
                f"queue depth   {self.queue_depth} in flight, "
                f"{self.resident_kernels} resident kernels",
                f"latency       p50 {self.p50_latency_ms:.3f} ms, "
                f"p95 {self.p95_latency_ms:.3f} ms "
                f"(warm p50 {self.warm_p50_latency_ms:.3f} ms, "
                f"cold p50 {self.cold_p50_latency_ms:.3f} ms)",
            ]
        )


@dataclass(frozen=True)
class WireSnapshot:
    """One immutable view of the supervisor's wire-path costs.

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

    messages_sent: int
    messages_received: int
    flushes: int
    bytes_sent: int
    bytes_received: int
    encode_s: float
    decode_s: float
    route_s: float
    flush_s: float

    @property
    def coalescing_ratio(self) -> float:
        """Mean messages per flush (1.0 = no batching; 0.0 when unused)."""
        return self.messages_sent / self.flushes if self.flushes else 0.0

    def delta(self, since: "WireSnapshot") -> "WireSnapshot":
        """The activity *between* two snapshots of the same profile.

        Snapshots are monotonic totals since the supervisor started, so a
        caller polling ``--stats`` repeatedly must difference consecutive
        snapshots rather than re-reading the totals as fresh activity:

            before = supervisor.wire_snapshot()
            ...
            window = supervisor.wire_snapshot().delta(before)
        """
        return WireSnapshot(
            messages_sent=self.messages_sent - since.messages_sent,
            messages_received=self.messages_received - since.messages_received,
            flushes=self.flushes - since.flushes,
            bytes_sent=self.bytes_sent - since.bytes_sent,
            bytes_received=self.bytes_received - since.bytes_received,
            encode_s=self.encode_s - since.encode_s,
            decode_s=self.decode_s - since.decode_s,
            route_s=self.route_s - since.route_s,
            flush_s=self.flush_s - since.flush_s,
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


class WireProfile:
    """Thread-safe accumulator for the supervisor's wire-path profile.

    Dispatchers, sender threads, and reader threads all record into one
    instance; :meth:`snapshot` folds it into an immutable
    :class:`WireSnapshot` for :class:`~repro.serve.ClusterStats`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages_sent = 0
        self._messages_received = 0
        self._flushes = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._encode_s = 0.0
        self._decode_s = 0.0
        self._route_s = 0.0
        self._flush_s = 0.0

    def record_send(self, size: int, encode_s: float, route_s: float = 0.0) -> None:
        """Count one encoded request message of ``size`` bytes."""
        with self._lock:
            self._messages_sent += 1
            self._bytes_sent += size
            self._encode_s += encode_s
            self._route_s += route_s

    def record_receive(self, size: int, decode_s: float) -> None:
        """Count one decoded reply message of ``size`` bytes."""
        with self._lock:
            self._messages_received += 1
            self._bytes_received += size
            self._decode_s += decode_s

    def record_flush(self, elapsed_s: float) -> None:
        """Count one transport flush (however many messages it carried)."""
        with self._lock:
            self._flushes += 1
            self._flush_s += elapsed_s

    def snapshot(self) -> WireSnapshot:
        """Fold the counters into an immutable snapshot."""
        with self._lock:
            return WireSnapshot(
                messages_sent=self._messages_sent,
                messages_received=self._messages_received,
                flushes=self._flushes,
                bytes_sent=self._bytes_sent,
                bytes_received=self._bytes_received,
                encode_s=self._encode_s,
                decode_s=self._decode_s,
                route_s=self._route_s,
                flush_s=self._flush_s,
            )


class _TenantCounters:
    """One tenant's slice of the outcome counters (guarded by the owner)."""

    __slots__ = (
        "requests",
        "warm",
        "cold",
        "dedup",
        "errors",
        "warm_latencies",
        "cold_latencies",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.warm = 0
        self.cold = 0
        self.dedup = 0
        self.errors = 0
        self.warm_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self.cold_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def block(self) -> dict:
        """The JSON-ready per-tenant stats block the wire protocol ships."""
        return {
            "requests": self.requests,
            "warm_serves": self.warm,
            "cold_serves": self.cold,
            "dedup_hits": self.dedup,
            "errors": self.errors,
            "warm_histogram": list(latency_histogram(tuple(self.warm_latencies))),
            "cold_histogram": list(latency_histogram(tuple(self.cold_latencies))),
        }


class ServerMetrics:
    """Thread-safe counters behind :meth:`KernelServer.metrics_snapshot`.

    Every recording method takes the request's tenant; the totals count all
    traffic as before, while per-tenant slices feed
    :meth:`tenant_breakdown`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._warm = 0
        self._cold = 0
        self._dedup = 0
        self._errors = 0
        self._tune_batches = 0
        self._batched_tunes = 0
        self._warm_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._cold_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._tenants: dict[str, _TenantCounters] = {}

    def _tenant(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
        return counters

    def record_request(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one incoming request (before its outcome is known)."""
        with self._lock:
            self._requests += 1
            self._tenant(tenant).requests += 1

    def record_warm(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one resident-table serve."""
        with self._lock:
            self._warm += 1
            self._warm_latencies.append(latency_s)
            counters = self._tenant(tenant)
            counters.warm += 1
            counters.warm_latencies.append(latency_s)

    def record_cold(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one full-path (tune + compile) serve."""
        with self._lock:
            self._cold += 1
            self._cold_latencies.append(latency_s)
            counters = self._tenant(tenant)
            counters.cold += 1
            counters.cold_latencies.append(latency_s)

    def record_dedup(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one request attached to an in-flight identical request."""
        with self._lock:
            self._dedup += 1
            self._tenant(tenant).dedup += 1

    def record_error(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one failed request."""
        with self._lock:
            self._errors += 1
            self._tenant(tenant).errors += 1

    def record_tune_batch(self, size: int) -> None:
        """Count one executed tuning micro-batch of ``size`` requests."""
        with self._lock:
            self._tune_batches += 1
            self._batched_tunes += size

    def latency_samples(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The retained (warm, cold) latency samples in seconds.

        The shard protocol buckets these into :func:`latency_histogram` so a
        supervisor can merge percentiles across processes.
        """
        with self._lock:
            return tuple(self._warm_latencies), tuple(self._cold_latencies)

    def tenant_breakdown(self) -> dict[str, dict]:
        """Per-tenant outcome counters, JSON-ready for the stats wire.

        Keys are tenant ids; each block carries ``requests``,
        ``warm_serves``, ``cold_serves``, ``dedup_hits``, ``errors`` and the
        fixed-bucket ``warm_histogram``/``cold_histogram``.  Returns ``{}``
        while only the default tenant has been seen: an untenanted server's
        stats replies stay byte-identical to the pre-tenant wire, and the
        breakdown (including the default slice) appears the moment a second
        namespace shows up.
        """
        with self._lock:
            if set(self._tenants) <= {DEFAULT_TENANT}:
                return {}
            return {
                tenant: counters.block()
                for tenant, counters in sorted(self._tenants.items())
            }

    def snapshot(self, queue_depth: int = 0, resident_kernels: int = 0) -> MetricsSnapshot:
        """Fold the counters into an immutable snapshot.

        ``queue_depth`` and ``resident_kernels`` are gauges owned by the
        server (they are sizes of its tables), passed in at snapshot time.
        """
        with self._lock:
            warm = tuple(self._warm_latencies)
            cold = tuple(self._cold_latencies)
            combined = warm + cold
            return MetricsSnapshot(
                requests=self._requests,
                warm_serves=self._warm,
                cold_serves=self._cold,
                dedup_hits=self._dedup,
                errors=self._errors,
                tune_batches=self._tune_batches,
                batched_tunes=self._batched_tunes,
                queue_depth=queue_depth,
                resident_kernels=resident_kernels,
                p50_latency_ms=_percentile(combined, 0.50) * 1e3,
                p95_latency_ms=_percentile(combined, 0.95) * 1e3,
                warm_p50_latency_ms=_percentile(warm, 0.50) * 1e3,
                cold_p50_latency_ms=_percentile(cold, 0.50) * 1e3,
                tenants=(
                    {
                        tenant: counters.block()
                        for tenant, counters in sorted(self._tenants.items())
                    }
                    if not set(self._tenants) <= {DEFAULT_TENANT}
                    else {}
                ),
            )
