"""What every workload returns, and the checks they share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from mbench import stats
from mbench.inputs import oracle
from mbench.spans import merge_tables, self_time_table


@dataclass
class Outcome:
    """One workload run.

    ``metrics`` are the end-to-end metrics (name -> (value, unit));
    ``attempted``/``failed`` count operations (compiles, checked elements,
    requests); ``report`` holds the workload's own metric names as printed
    lines; ``layers`` the per-layer metrics of a traced run and ``trace`` its
    self-time table and extra details.
    """

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def line(self, name: str, value, unit: str, note: str = "") -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.report.append(f"{name:<28} {text:>14} {unit:<12} {note}".rstrip())


def repeated_setup(body, teardown, repeats: int):
    """Run ``body`` ``repeats`` times, tearing down all but the last state.

    Returns ``(state, median seconds per body)``.
    """
    durations = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        started = time.perf_counter()
        state = body()
        durations.append(time.perf_counter() - started)
    return state, stats.median(durations)


def run_python(compiled_kernel, uniform: dict, elements: list[dict], recorder, **ids):
    """Run a ``python_exec`` artifact over a batch; returns (outputs, seconds)."""
    started = time.perf_counter()
    if not recorder.enabled:
        outputs = [compiled_kernel(**uniform, **element) for element in elements]
    else:
        outputs = []
        for element in elements:
            with recorder.span("exec.pack", **ids):
                limbs = compiled_kernel.pack_inputs({**uniform, **element})
            with recorder.span("exec.python", **ids):
                raw = compiled_kernel.call_limbs(*limbs)
            with recorder.span("exec.pack", **ids):
                outputs.append(compiled_kernel.unpack_outputs(raw))
    return outputs, time.perf_counter() - started


def expected_outputs(family, uniform, elements, recorder, **ids) -> list[dict]:
    with recorder.span("oracle.check", **ids):
        return [oracle(family, uniform, element) for element in elements]


def count_mismatches(outcome: Outcome, label: str, got: list[dict], want: list[dict]) -> None:
    """One attempted operation per element; a wrong element is a failure."""
    outcome.attempted += len(want)
    wrong = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    if wrong:
        outcome.fail(wrong, f"{label}: {wrong} of {len(want)} elements wrong")


#: Span names, one per layer boundary the benchmark calls across.
LAYER_SPANS = (
    "kernels.build",
    "driver.key",
    "rewrite.legalize",
    "passes.optimize",
    "codegen.emit",
    "exec.pack",
    "exec.python",
    "exec.native",
    "exec.cc",
    "oracle.check",
    "tune.tune",
    "serve.serve",
    "supervisor.route",
    "supervisor.serve",
    "protocol.encode",
    "protocol.decode",
)


def record_trace(outcome: Outcome, recorders: dict, compiled, untraced_compile_s: float,
                 untraced_pass_s: float, traced_pass_s: float) -> None:
    """Fill ``outcome`` with a traced run's per-layer metrics, table and spans.

    Metrics map name -> (value, unit).  ``recorders`` maps a phase name to
    the recorder holding that phase's spans.  ``compiled`` lists one traced
    compile of the workload's kernel set and ``untraced_compile_s`` is
    ``session.compile``'s time for the same set: their difference is the
    driver time no traced step owns.  The pass time traced and untraced
    gives the tracing overhead.
    """
    table = merge_tables(self_time_table(recorder.spans) for recorder in recorders.values())
    metrics = {}
    for name in LAYER_SPANS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        calls = row["calls"]
        metrics[f"{name}.ms"] = (1000.0 * row["self_s"] / calls if calls else 0.0, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
    metrics["passes.rounds"] = (sum(item.rounds for item in compiled) / max(len(compiled), 1), "count")
    metrics["rewrite.statements"] = (sum(item.legalized_statements for item in compiled), "count")
    metrics["passes.statements"] = (sum(item.statements for item in compiled), "count")
    c99 = [len(item.artifacts["c99"]) for item in compiled if "c99" in item.artifacts]
    metrics["codegen.c99_kb"] = (sum(c99) / len(c99) / 1024.0 if c99 else 0.0, "KB")
    walk_s = sum(item.walk_s for item in compiled)
    metrics["driver.unattributed_ms"] = (1000.0 * (untraced_compile_s - walk_s), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_pass_s - untraced_pass_s) / untraced_pass_s, "%")
    outcome.layers = metrics
    outcome.trace["self_time"] = table
    outcome.trace["spans"] = {phase: recorder.to_json() for phase, recorder in recorders.items()}
