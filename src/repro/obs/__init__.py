"""Observability plane: distributed tracing, structured logs, metrics export.

``repro.obs`` is the dependency-free (stdlib-only) subsystem every other
layer reports into:

* :mod:`repro.obs.trace` — request-scoped distributed tracing: a
  :class:`~repro.obs.trace.Tracer` issues trace/span ids, propagates them
  across threads via :mod:`contextvars` and across shard boundaries via an
  additive ``trace`` field on the wire envelope, and lands completed spans
  in a bounded in-process ring buffer.
* :mod:`repro.obs.export` — Chrome trace-event JSON export (loadable in
  Perfetto or ``chrome://tracing``) for merged cluster traces.
* :mod:`repro.obs.logs` — structured logging: namespaced per-module
  loggers, a trace-id correlation field on every record, optional JSON
  lines output.
* :mod:`repro.obs.registry` — the one metrics registry: labelled
  counters, gauges and fixed-bucket histograms, with one sample wire form,
  one merge, and one Prometheus text renderer.
* :mod:`repro.obs.http` — the ``--metrics-port`` HTTP endpoint serving
  ``/metrics`` (text exposition) and ``/trace.json`` (trace export).

The layering rule is strict: :mod:`repro.obs` imports nothing from the rest
of ``repro`` (so the compiler driver, the serve tier, and the CLI may all
import it without cycles), and instrumentation is sampling-gated so the
untraced hot path pays one context-variable read and nothing else.
"""

from repro.obs.trace import (
    Span,
    SpanBuffer,
    TraceHandle,
    Tracer,
    current,
    record,
    span,
)
from repro.obs.export import chrome_trace, instant_event, write_chrome_trace
from repro.obs.logs import configure_logging, get_logger
from repro.obs.registry import Registry, merge, render
from repro.obs.http import MetricsEndpoint

__all__ = [
    "Span",
    "SpanBuffer",
    "TraceHandle",
    "Tracer",
    "current",
    "record",
    "span",
    "chrome_trace",
    "instant_event",
    "write_chrome_trace",
    "configure_logging",
    "get_logger",
    "Registry",
    "merge",
    "render",
    "MetricsEndpoint",
]
