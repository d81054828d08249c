"""The metrics registry: recording, the sample wire form, merge, exposition.

A scraper needs three invariants from the renderer: every sample line
parses as ``name{labels} value`` (label values escaped), every histogram's
``_bucket`` series is cumulative and ends in ``+Inf`` equal to ``_count``,
with a ``_sum`` beside it, and the serve-tier views render every counter
they carry.  The cluster rollup rests on one more: merging N registries'
samples equals recording all their events into one registry.
"""

import json
import random
import re

import pytest

from repro.obs.registry import (
    HISTOGRAM_BUCKET_BOUNDS_MS,
    Registry,
    check_samples,
    merge,
    render,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ShardStats
from repro.serve.supervisor import ClusterStats

#: One exposition sample: metric name, optional {labels}, numeric value.
#: Label values may hold escaped quotes and backslashes.
SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_]+="(?:[^"\\\n]|\\.)*"(,[a-zA-Z_]+="(?:[^"\\\n]|\\.)*")*\})?'
    r" -?[0-9]+(\.[0-9eE+-]+)?$"
)


def assert_parseable(text: str) -> None:
    for line in text.strip().splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert SAMPLE.match(line), f"unparseable sample line: {line!r}"


def lines_of(text: str, prefix: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith(prefix)]


class TestRender:
    def test_counter_has_help_type_and_sample(self):
        registry = Registry()
        registry.inc("requests_total", 7)
        text = render(registry.samples(), {"requests_total": "Requests."})
        assert text.splitlines() == [
            "# HELP repro_requests_total Requests.",
            "# TYPE repro_requests_total counter",
            "repro_requests_total 7",
        ]

    def test_gauge_with_labels(self):
        registry = Registry()
        registry.set("depth", 3, {"shard": "1"})
        text = render(registry.samples(), {})
        assert 'repro_depth{shard="1"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert_parseable(text)

    def test_histogram_buckets_are_cumulative_ending_in_inf_with_sum(self):
        registry = Registry()
        for ms in (4.0, 4.0, 1000.0, 100000.0):
            registry.observe("latency_ms", ms)
        text = render(registry.samples(), {})
        assert_parseable(text)
        bucket_values = [
            int(line.rsplit(" ", 1)[1]) for line in lines_of(text, "repro_latency_ms_bucket")
        ]
        assert len(bucket_values) == len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1
        assert bucket_values == sorted(bucket_values)  # cumulative
        assert bucket_values[-1] == 4  # +Inf sees every sample
        assert lines_of(text, "repro_latency_ms_sum") == ["repro_latency_ms_sum 101008.0"]
        assert text.splitlines()[-1] == "repro_latency_ms_count 4"

    def test_overflow_count_folds_into_inf(self):
        registry = Registry()
        for _ in range(5):
            registry.observe("latency_ms", HISTOGRAM_BUCKET_BOUNDS_MS[-1] * 2)
        text = render(registry.samples(), {})
        buckets = lines_of(text, "repro_latency_ms_bucket")
        assert buckets[-2].endswith(" 0")  # the last finite bound
        assert buckets[-1] == 'repro_latency_ms_bucket{le="+Inf"} 5'

    @pytest.mark.parametrize(
        "value, escaped",
        [('x"y', r'x\"y'), ("a\\b", r"a\\b"), ("two\nlines", r"two\nlines")],
    )
    def test_label_values_are_escaped(self, value, escaped):
        registry = Registry()
        registry.inc("requests_total", labels={"tenant": value})
        text = render(registry.samples(), {})
        assert f'repro_requests_total{{tenant="{escaped}"}} 1' in text
        assert_parseable(text)

    def test_a_name_keeps_its_kind(self):
        registry = Registry()
        registry.inc("requests_total")
        with pytest.raises(ValueError, match="counter"):
            registry.set("requests_total", 1)


def random_events(rng: random.Random, count: int, shard: int = 0):
    """Seeded counter, gauge and histogram events over a few label sets.

    Each shard's gauges carry its ``shard`` label: a merge sums gauges,
    which equals setting them in one registry only for distinct series.
    """
    events = []
    for _ in range(count):
        tenant = {"tenant": rng.choice(("default", "a", "b"))}
        roll = rng.random()
        if roll < 0.4:
            events.append(("inc", "requests_total", rng.randint(0, 3), tenant))
        elif roll < 0.6:
            events.append(("set", "queue_depth", rng.randint(0, 9), {"shard": str(shard)}))
        else:
            labels = {**tenant, "class": rng.choice(("warm", "cold"))}
            events.append(("observe", "serve_latency_ms", 10 ** rng.uniform(-3.5, 4.5), labels))
    return events


def replay(registry: Registry, events) -> None:
    for method, name, amount, labels in events:
        getattr(registry, method)(name, amount, labels)


def by_series(samples) -> dict:
    return {
        (name, tuple(sorted(labels.items()))): (kind, value)
        for kind, name, labels, value in samples
    }


class TestMerge:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_merging_n_registries_equals_recording_into_one(self, seed):
        rng = random.Random(seed)
        shards = [random_events(rng, 300, shard) for shard in range(4)]
        pooled = Registry()
        registries = []
        for events in shards:
            registries.append(Registry())
            replay(registries[-1], events)
            replay(pooled, events)
        merged = by_series(merge(*(registry.samples() for registry in registries)))
        expected = by_series(pooled.samples())
        assert merged.keys() == expected.keys()
        for key, (kind, value) in expected.items():
            assert merged[key][0] == kind
            if kind == "histogram":
                assert merged[key][1]["counts"] == value["counts"]
                assert merged[key][1]["sum"] == pytest.approx(value["sum"])
            else:
                assert merged[key][1] == value

    def test_conflicting_kinds_refuse_to_merge(self):
        counter, gauge = Registry(), Registry()
        counter.inc("depth")
        gauge.set("depth", 1)
        with pytest.raises(ValueError):
            merge(counter.samples(), gauge.samples())


class TestCheckSamples:
    def test_registry_samples_survive_json(self):
        registry = Registry()
        replay(registry, random_events(random.Random(5), 50))
        wire = json.loads(json.dumps(registry.samples()))
        assert by_series(check_samples(wire)) == by_series(registry.samples())

    @pytest.mark.parametrize(
        "bad",
        [
            {"not": "a list"},
            [["counter", "x", {}]],
            [["summary", "x", {}, 1]],
            [["counter", "", {}, 1]],
            [["counter", "x", {"tenant": 1}, 1]],
            [["counter", "x", {}, -1]],
            [["counter", "x", {}, True]],
            [["gauge", "x", {}, "2"]],
            [["histogram", "x", {}, {"counts": [0] * 3, "sum": 0.0}]],
            [["histogram", "x", {}, {"counts": [0] * 25 + [-1], "sum": 0.0}]],
            [["histogram", "x", {}, {"counts": [0] * 26}]],
            [["counter", "x", {}, 1], ["counter", "x", {}, 2]],
        ],
    )
    def test_malformed_samples_are_rejected(self, bad):
        with pytest.raises(ValueError):
            check_samples(bad)


class TestServeExposition:
    def test_renders_every_counter_from_a_real_server(self):
        metrics = ServerMetrics()
        metrics.record_request()
        metrics.record_warm(0.002)
        metrics.record_request()
        metrics.record_cold(0.050)
        metrics.record_tune_batch(3)
        text = metrics.snapshot(queue_depth=2, resident_kernels=1).render()
        assert_parseable(text)
        for line in (
            "repro_requests_total 2",
            "repro_warm_serves_total 1",
            "repro_cold_serves_total 1",
            "repro_dedup_hits_total 0",
            "repro_batched_tunes_total 3",
            "repro_queue_depth 2",
            "repro_resident_kernels 1",
            "repro_latency_p50_ms 2.048",
        ):
            assert line in text.splitlines()
        assert "repro_tenant_" not in text  # only the default tenant so far

    def make_stats(self) -> ClusterStats:
        shards = []
        for shard_id, (warm, cold) in enumerate((((0.001, 0.002), (0.100,)), ((0.004,), ()))):
            metrics = ServerMetrics()
            for latency in warm:
                metrics.record_request()
                metrics.record_warm(latency)
            for latency in cold:
                metrics.record_request("acme")
                metrics.record_cold(latency, "acme")
            samples = metrics.snapshot().samples
            shards.append(ShardStats(samples=samples, shard_id=shard_id, pid=100 + shard_id))
        supervisor = Registry()
        supervisor.inc("wire_messages_sent_total", 4)
        supervisor.inc("wire_bytes_received_total", 250)
        return ClusterStats(
            samples=tuple(merge(*(shard.samples for shard in shards), supervisor.samples())),
            shards=tuple(shards),
        )

    def test_cluster_counters_and_per_shard_breakdown(self):
        text = self.make_stats().render()
        assert_parseable(text)
        assert "repro_requests_total 4" in text
        assert "repro_shards 2" in text
        assert 'repro_shard_requests_total{shard="0"} 3' in text
        assert 'repro_shard_requests_total{shard="1"} 1' in text
        assert "repro_wire_messages_sent_total 4" in text
        assert "repro_wire_bytes_received_total 250" in text

    def test_latency_histograms_merge_across_shards_per_class(self):
        text = self.make_stats().render()
        assert lines_of(text, 'repro_serve_latency_ms_count{class="warm"}') == [
            'repro_serve_latency_ms_count{class="warm"} 3'  # two + one
        ]
        assert lines_of(text, 'repro_serve_latency_ms_count{class="cold"}') == [
            'repro_serve_latency_ms_count{class="cold"} 1'
        ]

    def test_tenant_slices_are_the_same_series_filtered(self):
        stats = self.make_stats()
        text = stats.render()
        assert 'repro_tenant_requests_total{tenant="acme"} 1' in text
        assert 'repro_tenant_requests_total{tenant="default"} 3' in text
        assert 'repro_tenant_warm_ratio{tenant="acme"} 0.0' in text
        assert stats.tenants["acme"]["cold_serves"] == 1
        assert stats.tenants["default"]["warm_serves"] == 3
        assert stats.tenants["acme"]["p50_latency_ms"] == 131.072
