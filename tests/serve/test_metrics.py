"""Latency histogram percentiles, serve-tier recording, and the wire view.

`percentile_from_histogram` is the supervisor's only view of cross-shard
latency (raw samples never cross the wire), so its edge behaviour matters:
an empty histogram, q=0, q=1, and out-of-domain q (someone passing percent,
e.g. 95 or 100) must all be well-defined — no division by zero, no indexing
past the overflow bucket.  The sampling property pins the approximation
contract against exact quantiles over the raw samples: the histogram answer
is the upper bound of the true quantile's bucket, so it brackets the exact
value within one log-2 bucket.
"""

import dataclasses
import math
import random
import statistics
import threading

import pytest

from repro.obs.registry import (
    HISTOGRAM_BUCKET_BOUNDS_MS,
    Registry,
    merge,
    percentile_from_histogram,
)
from repro.serve.metrics import ServerMetrics, WireSnapshot


def bucket_counts(samples_s) -> tuple[int, ...]:
    """Bucket counts of latency samples (seconds) observed into a registry."""
    registry = Registry()
    registry.declare("histogram", "latency_ms")
    for sample in samples_s:
        registry.observe("latency_ms", sample * 1e3)
    ((_, _, _, value),) = registry.samples()
    return tuple(value["counts"])


def record_send(registry, size, encode_s, route_s=0.0):
    """The supervisor's series updates for one encoded request."""
    registry.inc("wire_messages_sent_total")
    registry.inc("wire_bytes_sent_total", size)
    registry.inc("wire_encode_seconds_total", encode_s)
    registry.inc("wire_route_seconds_total", route_s)


def record_receive(registry, size, decode_s):
    """The supervisor's series updates for one decoded reply."""
    registry.inc("wire_messages_received_total")
    registry.inc("wire_bytes_received_total", size)
    registry.inc("wire_decode_seconds_total", decode_s)


def record_flush(registry, elapsed_s):
    """The supervisor's series updates for one transport flush."""
    registry.inc("wire_flushes_total")
    registry.inc("wire_flush_seconds_total", elapsed_s)


def wire_snapshot(registry) -> WireSnapshot:
    return WireSnapshot.from_samples(registry.samples())


def bucket_upper_bound_ms(value_ms: float) -> float:
    """The fixed-histogram bucket bound a latency (ms) falls into."""
    for bound in HISTOGRAM_BUCKET_BOUNDS_MS:
        if value_ms <= bound:
            return bound
    return HISTOGRAM_BUCKET_BOUNDS_MS[-1]  # overflow reports the max bound


class TestEdgeCases:
    def test_empty_histogram_is_zero(self):
        assert percentile_from_histogram((), 0.5) == 0.0

    def test_all_zero_counts_is_zero(self):
        assert percentile_from_histogram((0,) * 26, 0.95) == 0.0

    def test_q_zero_reports_first_occupied_bucket(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[3] = 5
        counts[10] = 5
        assert (
            percentile_from_histogram(tuple(counts), 0.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[3]
        )

    def test_q_one_reports_last_occupied_bucket(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[3] = 5
        counts[10] = 5
        assert (
            percentile_from_histogram(tuple(counts), 1.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[10]
        )

    def test_overflow_bucket_reports_largest_finite_bound(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[-1] = 7  # every sample beyond the last bound
        assert (
            percentile_from_histogram(tuple(counts), 1.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[-1]
        )

    @pytest.mark.parametrize("q", [-0.1, 1.0001, 50, 95, 100])
    def test_out_of_domain_q_rejected(self, q):
        # Percent-style arguments must fail loudly, not report the max bucket.
        with pytest.raises(ValueError, match="fraction"):
            percentile_from_histogram((1, 2, 3), q)

    def test_single_sample_every_quantile(self):
        counts = bucket_counts((0.004,))  # 4 ms
        for q in (0.0, 0.5, 0.95, 1.0):
            assert percentile_from_histogram(counts, q) == bucket_upper_bound_ms(4.0)


class TestSamplingProperty:
    """Histogram percentiles track exact quantiles of the raw samples."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.25, 0.50, 0.75, 0.95])
    def test_matches_exact_quantile_within_bucket_resolution(self, seed, q):
        rng = random.Random(seed)
        # Log-uniform latencies from ~2 µs to ~8 s: spans most buckets.
        samples = tuple(10 ** rng.uniform(-5.7, 0.9) for _ in range(500))
        counts = bucket_counts(samples)

        approx_ms = percentile_from_histogram(counts, q)
        # Nearest-rank exact quantile over the same samples (in ms).
        exact_ms = sorted(samples)[max(1, math.ceil(q * len(samples))) - 1] * 1e3

        # The histogram reports the exact quantile's bucket upper bound:
        # at least the true value, within one log-2 bucket above it.
        assert approx_ms == bucket_upper_bound_ms(exact_ms)
        assert approx_ms >= exact_ms * (1.0 - 1e-9)
        assert approx_ms <= exact_ms * 2.0

    @pytest.mark.parametrize("seed", [11, 12])
    def test_brackets_statistics_quantiles(self, seed):
        # statistics.quantiles uses interpolation (not nearest rank), so
        # only the bucket-resolution bracket is required to hold.
        rng = random.Random(seed)
        samples = tuple(10 ** rng.uniform(-4.0, 0.0) for _ in range(1000))
        counts = bucket_counts(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for q, exact_s in ((0.50, cuts[49]), (0.95, cuts[94])):
            approx_ms = percentile_from_histogram(counts, q)
            exact_ms = exact_s * 1e3
            # Within one log-2 bucket either side of the interpolated value.
            assert exact_ms / 2.0 <= approx_ms <= exact_ms * 2.0

    def test_merged_histograms_match_pooled_samples(self):
        # The supervisor's merge of per-shard registry samples must equal
        # observing the pooled samples into one registry.
        rng = random.Random(7)
        shard_a = tuple(10 ** rng.uniform(-5.0, 0.5) for _ in range(200))
        shard_b = tuple(10 ** rng.uniform(-5.0, 0.5) for _ in range(300))
        registries = [Registry(), Registry(), Registry()]
        for registry, samples in zip(registries, (shard_a, shard_b, shard_a + shard_b)):
            for sample in samples:
                registry.observe("serve_latency_ms", sample * 1e3, {"class": "warm"})
        ((_, _, _, merged),) = merge(registries[0].samples(), registries[1].samples())
        ((_, _, _, pooled),) = registries[2].samples()
        assert merged["counts"] == pooled["counts"]
        assert merged["sum"] == pytest.approx(pooled["sum"])
        for q in (0.5, 0.95):
            assert percentile_from_histogram(
                merged["counts"], q
            ) == percentile_from_histogram(pooled["counts"], q)


class TestWireSnapshotDelta:
    """Wire snapshots are monotonic totals; ``delta`` isolates a window.

    The regression this pins: a caller polling ``--stats`` repeatedly must
    not read the totals twice and report the first window's traffic again.
    ``delta(before)`` subtracts field-wise, so consecutive windows sum back
    to the totals and an idle window is exactly zero.
    """

    def test_delta_isolates_the_window_between_snapshots(self):
        profile = Registry()
        record_send(profile, 100, 0.001, route_s=0.0005)
        record_flush(profile, 0.0002)
        before = wire_snapshot(profile)

        record_send(profile, 40, 0.002, route_s=0.0001)
        record_receive(profile, 300, 0.003)
        record_flush(profile, 0.0004)
        window = wire_snapshot(profile).delta(before)

        assert window.messages_sent == 1
        assert window.messages_received == 1
        assert window.flushes == 1
        assert window.bytes_sent == 40
        assert window.bytes_received == 300
        assert window.encode_s == pytest.approx(0.002)
        assert window.decode_s == pytest.approx(0.003)
        assert window.route_s == pytest.approx(0.0001)
        assert window.flush_s == pytest.approx(0.0004)

    def test_idle_window_is_zero_for_every_field(self):
        profile = Registry()
        record_send(profile, 100, 0.001)
        record_receive(profile, 50, 0.001)
        snap = wire_snapshot(profile)
        for field, value in dataclasses.asdict(snap.delta(snap)).items():
            assert value == 0, f"idle delta field {field} = {value}"

    def test_repeated_polls_double_count_without_delta(self):
        # The failure mode delta exists for: raw totals are cumulative.
        profile = Registry()
        record_send(profile, 10, 0.0)
        first = wire_snapshot(profile)
        record_send(profile, 10, 0.0)
        second = wire_snapshot(profile)
        assert second.messages_sent == 2  # totals keep growing
        assert second.delta(first).messages_sent == 1  # the window does not

    def test_consecutive_windows_sum_to_the_totals(self):
        profile = Registry()
        snapshots = [wire_snapshot(profile)]
        for size in (10, 20, 30):
            record_send(profile, size, 0.001)
            record_flush(profile, 0.0001)
            snapshots.append(wire_snapshot(profile))
        windows = [
            later.delta(earlier)
            for earlier, later in zip(snapshots, snapshots[1:])
        ]
        assert sum(w.bytes_sent for w in windows) == snapshots[-1].bytes_sent
        assert sum(w.flushes for w in windows) == snapshots[-1].flushes
        assert sum(w.flush_s for w in windows) == pytest.approx(
            snapshots[-1].flush_s
        )


class TestConcurrentRecording:
    """N threads hammer one accumulator; every event must be conserved.

    A serve records a counter and a histogram observation, a wire send
    four counters, so a lost update or torn read under contention would
    show up as snapshots whose parts disagree with the known totals.
    """

    THREADS = 8
    EVENTS_PER_THREAD = 400

    def _hammer(self, worker) -> None:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_server_metrics_conserve_every_event(self):
        metrics = ServerMetrics()

        def worker(index: int) -> None:
            for event in range(self.EVENTS_PER_THREAD):
                metrics.record_request()
                outcome = (index + event) % 4
                if outcome == 0:
                    metrics.record_warm(0.001)
                elif outcome == 1:
                    metrics.record_cold(0.010)
                elif outcome == 2:
                    metrics.record_dedup()
                else:
                    metrics.record_error()
                if event % 50 == 0:
                    metrics.record_tune_batch(2)
                    metrics.snapshot()  # concurrent reads must not tear

        self._hammer(worker)
        total = self.THREADS * self.EVENTS_PER_THREAD
        snap = metrics.snapshot()
        assert snap.requests == total
        assert (
            snap.warm_serves + snap.cold_serves + snap.dedup_hits + snap.errors
            == total
        )
        assert snap.warm_serves == total // 4
        assert snap.tune_batches == self.THREADS * (self.EVENTS_PER_THREAD // 50)
        assert snap.batched_tunes == 2 * snap.tune_batches
        # Histograms count every serve since start: no window drops any.
        assert sum(snap.histogram(**{"class": "warm"})) == snap.warm_serves
        assert sum(snap.histogram(**{"class": "cold"})) == snap.cold_serves

    def test_wire_profile_conserves_bytes_and_time(self):
        profile = Registry()

        def worker(index: int) -> None:
            for event in range(self.EVENTS_PER_THREAD):
                record_send(profile, 10, 0.001, route_s=0.0005)
                record_receive(profile, 30, 0.002)
                if event % 4 == 0:
                    record_flush(profile, 0.0001)
                if event % 100 == 0:
                    wire_snapshot(profile)

        self._hammer(worker)
        total = self.THREADS * self.EVENTS_PER_THREAD
        snap = wire_snapshot(profile)
        assert snap.messages_sent == total
        assert snap.messages_received == total
        assert snap.bytes_sent == 10 * total
        assert snap.bytes_received == 30 * total
        assert snap.flushes == self.THREADS * (self.EVENTS_PER_THREAD // 4)
        assert snap.encode_s == pytest.approx(0.001 * total)
        assert snap.route_s == pytest.approx(0.0005 * total)
        assert snap.decode_s == pytest.approx(0.002 * total)
        assert snap.coalescing_ratio == pytest.approx(4.0)
