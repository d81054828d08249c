"""Request-scoped distributed tracing over :mod:`contextvars`.

One client call through the serving stack crosses a supervisor thread, a
per-connection sender thread, a TCP socket, a shard's connection loop, and
the shard server's worker pool.  This module gives that call **one trace**:

* a :class:`Tracer` decides per request whether to trace (deterministic
  1-in-N sampling, an explicit ``force``, or an adopted wire context) and
  hands back a :class:`TraceHandle` — the root span plus the per-trace
  scratch every child span accumulates into;
* :func:`span` / :func:`record` add child spans from *any* code running
  under the handle's :meth:`~TraceHandle.activate` context (the current
  trace travels in a :class:`contextvars.ContextVar`, so worker threads
  that run a copied context inherit it);
* :meth:`TraceHandle.wire_field` / ``Tracer.begin(wire=...)`` carry the
  trace across process and machine boundaries as a small JSON-safe dict —
  the wire envelope's additive ``trace`` field (absent ⇒ untraced);
* finished traces are committed into a bounded, preallocated
  :class:`SpanBuffer` ring — never any I/O on the serving path; exporters
  (:mod:`repro.obs.export`, the stats drain) pull spans out later.

**Cost when off.**  An unsampled request allocates nothing: ``begin``
returns ``None`` after one counter increment, :func:`span` is a no-op
after a single context-variable read, and no span object is ever built.

**Slow-request exemplars.**  With ``exemplar_threshold_s`` set, requests
that lose the sampling draw still record *provisionally*: their spans are
kept only if the root span ends up slower than the threshold, so the ring
buffer always holds an exemplar trace for tail-latency requests without
tracing the fast majority.  Provisional traces are local to the process
that owns the root span — they are not propagated over the wire.

Span timestamps are wall-clock (``time.time``) microseconds so spans from
different processes land on one shared timeline; durations come from
``time.perf_counter`` so they are monotonic-accurate.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanBuffer",
    "TraceContext",
    "TraceHandle",
    "Tracer",
    "current",
    "current_trace_id",
    "record",
    "span",
]

#: Default bound on retained spans per process (a full cluster trace of a
#: cold request is a few dozen spans; 8192 holds hundreds of traces).
DEFAULT_BUFFER_CAPACITY = 8192

#: Hard cap on child spans one trace may accumulate before commit — a
#: runaway instrumentation loop must not grow the scratch without bound.
MAX_SPANS_PER_TRACE = 512

_CONTEXT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro-trace", default=None
)


@dataclass(frozen=True)
class Span:
    """One completed, immutable span.

    Attributes:
        trace_id: the request's trace id (shared by every span of the call).
        span_id: this span's id, unique within the trace across processes.
        parent_id: the enclosing span's id (``""`` for a root span).
        name: what happened (``"route"``, ``"compile"``, ``"pass.eliminate_dead_code"``...).
        cat: coarse layer tag (``"serve"``, ``"wire"``, ``"compile"``...).
        ts_us: wall-clock start, microseconds since the epoch.
        dur_us: duration in microseconds (``perf_counter``-accurate).
        process_id: OS pid of the recording process.
        thread_id: recording thread's native id.
        args: small JSON-safe annotations (shard id, request key, ...).
    """

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    cat: str
    ts_us: float
    dur_us: float
    process_id: int
    thread_id: int
    args: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        """The JSON-safe wire form (what a stats drain ships)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "ts": self.ts_us,
            "dur": self.dur_us,
            "proc": self.process_id,
            "thread": self.thread_id,
            "args": dict(self.args),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> Span:
        """Rebuild a span from its wire form; ``ValueError`` on malformed."""
        if not isinstance(payload, dict):
            raise ValueError(f"span payload must be a dict, got {type(payload).__name__}")
        try:
            trace_id = payload["trace"]
            span_id = payload["span"]
            name = payload["name"]
            ts_us = payload["ts"]
            dur_us = payload["dur"]
        except KeyError as missing:
            raise ValueError(f"span payload is missing {missing}") from None
        for label, value in (("trace", trace_id), ("span", span_id), ("name", name)):
            if not isinstance(value, str) or not value:
                raise ValueError(f"span field {label!r} must be a non-empty string")
        for label, value in (("ts", ts_us), ("dur", dur_us)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"span field {label!r} must be a number")
        args = payload.get("args", {})
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=str(payload.get("parent", "")),
            name=name,
            cat=str(payload.get("cat", "")),
            ts_us=float(ts_us),
            dur_us=float(dur_us),
            process_id=int(payload.get("proc", 0)),
            thread_id=int(payload.get("thread", 0)),
            args=dict(args) if isinstance(args, dict) else {},
        )


class SpanBuffer:
    """A bounded ring of completed spans with preallocated slots.

    Committing a trace is a lock, a few slot writes, and nothing else — no
    allocation beyond the spans themselves, no I/O.  When the ring wraps,
    the oldest spans are overwritten and counted in :attr:`dropped`; an
    exporter that drains faster than traffic commits loses nothing.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"span buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slots: list[Span | None] = [None] * capacity
        self._next = 0  # next slot to write
        self._count = 0  # live spans in the ring (<= capacity)
        self._dropped = 0
        self._lock = threading.Lock()

    def extend(self, spans) -> None:
        """Commit completed spans (oldest evicted once the ring is full)."""
        with self._lock:
            for one in spans:
                if self._count == self.capacity:
                    self._dropped += 1
                else:
                    self._count += 1
                self._slots[self._next] = one
                self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        with self._lock:
            return self._count

    @property
    def dropped(self) -> int:
        """Spans overwritten before any drain (buffer pressure signal)."""
        with self._lock:
            return self._dropped

    def snapshot(self) -> tuple[Span, ...]:
        """The retained spans, oldest first, without clearing them."""
        with self._lock:
            return self._ordered()

    def drain(self) -> tuple[Span, ...]:
        """Remove and return every retained span, oldest first."""
        with self._lock:
            spans = self._ordered()
            self._slots = [None] * self.capacity
            self._next = 0
            self._count = 0
            return spans

    def _ordered(self) -> tuple[Span, ...]:
        start = (self._next - self._count) % self.capacity
        return tuple(
            self._slots[(start + index) % self.capacity]
            for index in range(self._count)
        )


class _Scratch:
    """One in-flight trace's accumulating spans (shared across threads)."""

    __slots__ = ("trace_id", "spans", "overflow", "_ids", "_lock")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.overflow = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def next_span_id(self) -> str:
        # The pid prefix keeps ids unique when supervisor and shard both
        # number their spans from 1 within the same trace.
        return f"{os.getpid():x}.{next(self._ids)}"

    def add(self, span_: Span, force: bool = False) -> None:
        # ``force`` exempts the root span: a trace that hit the child cap
        # must still commit its root, or the whole trace becomes orphans.
        with self._lock:
            if not force and len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.overflow += 1
                return
            self.spans.append(span_)


class TraceContext:
    """What the context variable carries: the trace plus the current parent."""

    __slots__ = ("scratch", "span_id")

    def __init__(self, scratch: _Scratch, span_id: str) -> None:
        self.scratch = scratch
        self.span_id = span_id

    @property
    def trace_id(self) -> str:
        return self.scratch.trace_id


def current() -> TraceContext | None:
    """The active trace context, or ``None`` (the untraced fast path)."""
    return _CONTEXT.get()


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` — the log-correlation field."""
    context = _CONTEXT.get()
    return context.trace_id if context is not None else None


def _complete(
    context: TraceContext,
    name: str,
    cat: str,
    ts_us: float,
    dur_us: float,
    args: dict,
) -> Span:
    span_ = Span(
        trace_id=context.trace_id,
        span_id=context.scratch.next_span_id(),
        parent_id=context.span_id,
        name=name,
        cat=cat,
        ts_us=ts_us,
        dur_us=dur_us,
        process_id=os.getpid(),
        thread_id=threading.get_native_id(),
        args=args,
    )
    context.scratch.add(span_)
    return span_


@contextmanager
def span(name: str, cat: str = "serve", **args):
    """Record one child span around a code block (no-op when untraced).

    The block's children see this span as their parent: the context
    variable is swapped to a child context for the duration.
    """
    context = _CONTEXT.get()
    if context is None:
        yield None
        return
    scratch = context.scratch
    child = TraceContext(scratch, scratch.next_span_id())
    token = _CONTEXT.set(child)
    wall = time.time()
    started = time.perf_counter()
    try:
        yield child
    finally:
        dur_s = time.perf_counter() - started
        _CONTEXT.reset(token)
        scratch.add(
            Span(
                trace_id=scratch.trace_id,
                span_id=child.span_id,
                parent_id=context.span_id,
                name=name,
                cat=cat,
                ts_us=wall * 1e6,
                dur_us=dur_s * 1e6,
                process_id=os.getpid(),
                thread_id=threading.get_native_id(),
                args=args,
            )
        )


def record(
    name: str,
    start_wall_s: float,
    dur_s: float,
    cat: str = "serve",
    **args,
) -> None:
    """Record an already-measured child span (no-op when untraced).

    For work that was timed out-of-band — a queue wait known only at
    dequeue, a decode measured before the trace was correlated — where a
    ``with`` block around the code is impossible.
    """
    context = _CONTEXT.get()
    if context is None:
        return
    _complete(context, name, cat, start_wall_s * 1e6, dur_s * 1e6, args)


class TraceHandle:
    """One root span in flight: activate it, annotate it, finish it.

    Handles cross threads freely: :meth:`activate` installs the trace in
    the *current* thread's context, :meth:`record` appends a measured child
    span from any thread, and :meth:`finish` — callable exactly once, from
    wherever the request completes — closes the root span and commits or
    discards the whole trace.
    """

    def __init__(
        self,
        tracer: Tracer,
        scratch: _Scratch,
        name: str,
        cat: str,
        parent_id: str,
        provisional: bool,
        args: dict,
    ) -> None:
        self._tracer = tracer
        self._scratch = scratch
        self._name = name
        self._cat = cat
        self._parent_id = parent_id
        self._provisional = provisional
        self._args = args
        self._root = TraceContext(scratch, scratch.next_span_id())
        self._wall = time.time()
        self._started = time.perf_counter()
        self._finished = False

    @property
    def trace_id(self) -> str:
        return self._scratch.trace_id

    @property
    def sampled(self) -> bool:
        """Whether this trace is committed unconditionally (not provisional)."""
        return not self._provisional

    @contextmanager
    def activate(self):
        """Make this trace the current context for the enclosed block."""
        token = _CONTEXT.set(self._root)
        try:
            yield self._root
        finally:
            _CONTEXT.reset(token)

    def record(
        self, name: str, start_wall_s: float, dur_s: float, cat: str = "serve", **args
    ) -> None:
        """Append a measured child span of the root, from any thread."""
        if not self._finished:
            _complete(self._root, name, cat, start_wall_s * 1e6, dur_s * 1e6, args)

    def wire_field(self) -> dict | None:
        """The envelope ``trace`` field propagating this trace downstream.

        ``None`` for provisional (exemplar-candidate) traces: a peer cannot
        un-record spans for a trace that ends up fast, so provisional
        traces stay local.
        """
        if self._provisional:
            return None
        return {"id": self.trace_id, "span": self._root.span_id, "sampled": True}

    def annotate(self, **args) -> None:
        """Attach annotations to the root span before it finishes."""
        self._args.update(args)

    def finish(self, **args) -> float:
        """Close the root span; commit (or discard) the trace.  Idempotent.

        Returns the root span's duration in seconds.
        """
        dur_s = time.perf_counter() - self._started
        if self._finished:
            return dur_s
        self._finished = True
        if args:
            self._args.update(args)
        if self._scratch.overflow:
            self._args.setdefault("spans_dropped", self._scratch.overflow)
        root = Span(
            trace_id=self.trace_id,
            span_id=self._root.span_id,
            parent_id=self._parent_id,
            name=self._name,
            cat=self._cat,
            ts_us=self._wall * 1e6,
            dur_us=dur_s * 1e6,
            process_id=os.getpid(),
            thread_id=threading.get_native_id(),
            args=self._args,
        )
        self._scratch.add(root, force=True)
        self._tracer._commit(self._scratch, self._provisional, dur_s)
        return dur_s


class Tracer:
    """Issues, samples, and retains traces for one process.

    Args:
        sample_rate: fraction of root requests traced, ``0.0``–``1.0``.
            Sampling is deterministic 1-in-N (``round(1/rate)``), so a 1%
            rate traces exactly every 100th request — no RNG on the hot
            path, and benchmarks are reproducible.
        capacity: ring-buffer bound on retained spans.
        exemplar_threshold_s: when set, requests that lose the sampling
            draw still record provisionally and are committed only if the
            root span exceeds this duration — tail-latency exemplars.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        capacity: int = DEFAULT_BUFFER_CAPACITY,
        exemplar_threshold_s: float | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {sample_rate!r}")
        if exemplar_threshold_s is not None and exemplar_threshold_s < 0:
            raise ValueError(
                f"exemplar threshold must be non-negative, got {exemplar_threshold_s!r}"
            )
        self.sample_rate = sample_rate
        self.exemplar_threshold_s = exemplar_threshold_s
        self.buffer = SpanBuffer(capacity)
        self._period = round(1.0 / sample_rate) if sample_rate > 0.0 else 0
        self._draws = itertools.count()
        self._committed_traces = 0
        self._exemplar_traces = 0

    # -- root spans ---------------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "serve",
        wire: dict | None = None,
        force: bool = False,
        **args,
    ) -> TraceHandle | None:
        """Start a root span, or return ``None`` on the untraced fast path.

        ``wire`` adopts a propagated trace context (the envelope's
        ``trace`` field): the new root joins that trace as a child of the
        sender's span, and is always committed — the sampling decision was
        made upstream.  ``force`` traces unconditionally (the ``--trace``
        CLI mode).  Otherwise the deterministic sampler decides; losers
        still trace provisionally when exemplar capture is configured.
        """
        if wire is not None:
            adopted = self.adopt_wire_field(wire)
            if adopted is None:
                return None
            trace_id, parent_id = adopted
            return TraceHandle(
                self, _Scratch(trace_id), name, cat, parent_id, False, args
            )
        provisional = False
        if not force and not self._sample():
            if self.exemplar_threshold_s is None:
                return None
            provisional = True
        return TraceHandle(
            self, _Scratch(uuid.uuid4().hex[:16]), name, cat, "", provisional, args
        )

    @contextmanager
    def trace(self, name: str, cat: str = "serve", force: bool = False, **args):
        """``begin`` + ``activate`` + ``finish`` for straight-line callers."""
        handle = self.begin(name, cat=cat, force=force, **args)
        if handle is None:
            yield None
            return
        try:
            with handle.activate():
                yield handle
        finally:
            handle.finish()

    @staticmethod
    def adopt_wire_field(wire: dict) -> tuple[str, str] | None:
        """Validate an envelope ``trace`` field → ``(trace id, parent id)``.

        Malformed fields are treated as absent (``None``): a bad peer
        annotation must never fail the request it rides on.
        """
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = wire.get("span", "")
        return trace_id, parent if isinstance(parent, str) else ""

    def _sample(self) -> bool:
        if self._period == 0:
            return False
        return next(self._draws) % self._period == 0

    def _commit(self, scratch: _Scratch, provisional: bool, root_dur_s: float) -> None:
        if provisional:
            threshold = self.exemplar_threshold_s
            if threshold is None or root_dur_s < threshold:
                return
            self._exemplar_traces += 1
        self._committed_traces += 1
        self.buffer.extend(scratch.spans)

    # -- retained spans -----------------------------------------------------

    def drain(self) -> tuple[Span, ...]:
        """Remove and return every retained span (the stats-drain hook)."""
        return self.buffer.drain()

    def snapshot(self) -> tuple[Span, ...]:
        """The retained spans without clearing them (the HTTP endpoint)."""
        return self.buffer.snapshot()

    @property
    def committed_traces(self) -> int:
        """Traces committed to the buffer (sampled, forced, or exemplar)."""
        return self._committed_traces

    @property
    def exemplar_traces(self) -> int:
        """Committed traces that were retained by the slow-request threshold."""
        return self._exemplar_traces
