"""One metrics registry: labelled counters, gauges and fixed-bucket histograms.

Every count and latency the serving tier keeps is a *series* of a
:class:`Registry` — a metric name, a label set (``{"tenant": "acme"}``) and
a value — recorded once, at the event.  Every view is built from the same
three pieces:

* :meth:`Registry.samples` — the one wire form: a JSON-ready list of
  ``[kind, name, labels, value]`` entries, where a histogram's value is
  ``{"counts": [...], "sum": ...}``.  :func:`check_samples` validates a
  list received from a peer.
* :func:`merge` — sums sample lists series by series; a cluster rollup is
  the merge of its shards' samples.
* :func:`render` — the Prometheus text exposition of a sample list
  (``text/plain; version=0.0.4``).

Histograms share the fixed log-2 bounds :data:`HISTOGRAM_BUCKET_BOUNDS_MS`,
which is what makes them summable across processes.  Every value counts
since the registry was made, so a rendered counter, ``_bucket`` or
``_count`` never goes down between scrapes.

Stdlib only; like the rest of :mod:`repro.obs` it imports nothing else
from ``repro``.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "HISTOGRAM_BUCKET_BOUNDS_MS",
    "Registry",
    "check_samples",
    "merge",
    "percentile_from_histogram",
    "render",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
_KINDS = (COUNTER, GAUGE, HISTOGRAM)

#: Upper bucket bounds (milliseconds) of every histogram: log-2 spaced from
#: 1 µs to ~17 s, with one implicit overflow bucket at the end.  The bounds
#: being *fixed* is what makes histograms from different processes
#: directly summable.
HISTOGRAM_BUCKET_BOUNDS_MS = tuple(0.001 * (1 << i) for i in range(25))

#: Counts per histogram: one per bound plus the overflow bucket.
_BUCKETS = len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted(labels.items())) if labels else ()


class Registry:
    """Thread-safe labelled series, recorded at the event, read as samples.

    A metric name has one kind for the registry's lifetime; recording it
    as another kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        # (kind, name, sorted label pairs) -> a number, or a histogram's
        # [count per bucket..., sum] list.
        self._values: dict[tuple, object] = {}

    def _series(self, key: tuple):
        """The series at ``key``, made zero-valued if new (lock held).

        The kind check runs only here, when a series is made: a key holds
        its kind, so recording into an existing series needs no check.
        """
        value = self._values.get(key)
        if value is None:
            kind, name, _ = key
            held = self._kinds.setdefault(name, kind)
            if held != kind:
                raise ValueError(f"metric {name!r} is a {held}, not a {kind}")
            value = self._values[key] = [0] * _BUCKETS + [0.0] if kind == HISTOGRAM else 0
        return value

    def declare(self, kind: str, name: str, labels: dict | None = None) -> None:
        """Create a zero-valued series, so it renders before its first event."""
        with self._lock:
            self._series((kind, name, _label_key(labels)))

    def inc(self, name: str, amount=1, labels: dict | None = None) -> None:
        """Add ``amount`` (never negative) to a counter."""
        key = (COUNTER, name, _label_key(labels))
        with self._lock:
            self._values[key] = self._series(key) + amount

    def set(self, name: str, value, labels: dict | None = None) -> None:
        """Set a gauge to ``value``."""
        key = (GAUGE, name, _label_key(labels))
        with self._lock:
            self._series(key)
            self._values[key] = value

    def observe(self, name: str, value_ms: float, labels: dict | None = None) -> None:
        """Count one ``value_ms`` observation into a histogram."""
        # The first bound >= value_ms, or the overflow bucket past them all.
        index = bisect.bisect_left(HISTOGRAM_BUCKET_BOUNDS_MS, value_ms)
        key = (HISTOGRAM, name, _label_key(labels))
        with self._lock:
            cell = self._series(key)
            cell[index] += 1
            cell[-1] += value_ms

    def samples(self) -> list[list]:
        """Every series as ``[kind, name, labels, value]`` (the wire form)."""
        with self._lock:
            return [
                [
                    kind,
                    name,
                    dict(labels),
                    (
                        {"counts": cell[:-1], "sum": cell[-1]}
                        if kind == HISTOGRAM
                        else cell
                    ),
                ]
                for (kind, name, labels), cell in self._values.items()
            ]


def _is_number(value) -> bool:
    """A finite JSON number: ``true``/``false`` do not count."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_samples(value) -> list[list]:
    """``value`` if it is a well-formed sample list, else ``ValueError``.

    Strict, for samples that crossed a wire: every entry is
    ``[kind, name, labels, value]`` with a known kind, a non-empty name,
    string labels, a finite number (non-negative for a counter) or a
    histogram of :data:`HISTOGRAM_BUCKET_BOUNDS_MS`-shaped non-negative
    integer counts and a finite sum, and no series appears twice.
    """
    if not isinstance(value, list):
        raise ValueError(f"samples must be a list, got {value!r}")
    seen = set()
    for entry in value:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"malformed sample {entry!r}")
        kind, name, labels, number = entry
        if kind not in _KINDS or not isinstance(name, str) or not name:
            raise ValueError(f"malformed sample {entry!r}")
        if not isinstance(labels, dict) or not all(
            isinstance(key, str) and isinstance(label, str)
            for key, label in labels.items()
        ):
            raise ValueError(f"malformed sample labels {entry!r}")
        if kind == HISTOGRAM:
            counts = number.get("counts") if isinstance(number, dict) else None
            if (
                not isinstance(counts, list)
                or len(counts) != _BUCKETS
                or not all(
                    isinstance(count, int) and not isinstance(count, bool) and count >= 0
                    for count in counts
                )
                or not _is_number(number.get("sum"))
            ):
                raise ValueError(f"malformed histogram sample {entry!r}")
        elif not _is_number(number) or (kind == COUNTER and number < 0):
            raise ValueError(f"malformed {kind} sample {entry!r}")
        key = (name, _label_key(labels))
        if key in seen:
            raise ValueError(f"duplicate sample series {entry!r}")
        seen.add(key)
    return value


def merge(*sample_lists) -> list[list]:
    """Sum sample lists series by series into one sample list.

    Counters and gauges add; histograms add bucket by bucket and sum by
    sum.  Merging N registries' samples equals recording all their events
    into one registry.  A name recorded as two kinds raises ``ValueError``.
    """
    merged: dict[tuple, list] = {}
    for samples in sample_lists:
        for kind, name, labels, value in samples:
            key = (name, _label_key(labels))
            held = merged.get(key)
            if held is None:
                merged[key] = [kind, name, dict(labels), value]
            elif held[0] != kind:
                raise ValueError(f"metric {name!r} is a {held[0]} and a {kind}")
            elif kind == HISTOGRAM:
                held[3] = {
                    "counts": [a + b for a, b in zip(held[3]["counts"], value["counts"])],
                    "sum": held[3]["sum"] + value["sum"],
                }
            else:
                held[3] += value
    return list(merged.values())


def percentile_from_histogram(counts, q: float) -> float:
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


def _escape(value) -> str:
    """A label value as the exposition format quotes it."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _line(name: str, labels: dict, value) -> str:
    body = ",".join(f'{key}="{_escape(label)}"' for key, label in sorted(labels.items()))
    rendered = repr(value) if isinstance(value, float) else str(value)
    return f"{name}{{{body}}} {rendered}" if body else f"{name} {rendered}"


def render(samples, help_text: dict, prefix: str = "repro") -> str:
    """A sample list as Prometheus text exposition, families sorted by name.

    Each family gets its ``# HELP`` (from ``help_text``, keyed by metric
    name) and ``# TYPE`` lines; a histogram renders as cumulative
    ``_bucket{le="..."}`` series ending in ``+Inf``, then ``_sum`` and
    ``_count``.
    """
    families: dict[str, tuple[str, list]] = {}
    for kind, name, labels, value in samples:
        families.setdefault(name, (kind, []))[1].append((labels, value))
    lines = []
    for name, (kind, series) in sorted(families.items()):
        metric = f"{prefix}_{name}"
        lines.append(f"# HELP {metric} {help_text.get(name, name)}")
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in sorted(series, key=lambda one: _label_key(one[0])):
            if kind != HISTOGRAM:
                lines.append(_line(metric, labels, value))
                continue
            cumulative = 0
            for bound, count in zip(HISTOGRAM_BUCKET_BOUNDS_MS, value["counts"]):
                cumulative += count
                lines.append(_line(f"{metric}_bucket", {**labels, "le": f"{bound:g}"}, cumulative))
            total = sum(value["counts"])
            lines.append(_line(f"{metric}_bucket", {**labels, "le": "+Inf"}, total))
            lines.append(_line(f"{metric}_sum", labels, value["sum"]))
            lines.append(_line(f"{metric}_count", labels, total))
    return "\n".join(lines) + "\n"
