"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``layer.operation``), start, end, the span that was open
on the same thread when it started (its parent), and free-form ids such as
the kernel or request it belongs to.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the part of that interval
its children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    ids: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a disabled recorder hands out one shared no-op context."""

    _NOOP = contextlib.nullcontext()

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, **ids):
        if not self.enabled:
            return self._NOOP
        return self._open(name, ids)

    @contextlib.contextmanager
    def _open(self, name: str, ids: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), stack[-1].span_id if stack else None, name, 0.0, ids=ids)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": span.span_id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                **({"ids": span.ids} if span.ids else {}),
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
            if child.end > span.start and child.start < span.end
        ]
        result[span.span_id] = span.duration - _covered(clipped)
    return result


def self_time_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.span_id]
    return table


def merge_tables(tables) -> dict[str, dict]:
    """Sum self-time tables row by row (one table per recorder)."""
    merged: dict[str, dict] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return merged
