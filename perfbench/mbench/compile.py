"""Compiling one kernel family, plainly or as a traced layer walk.

Untraced, a family goes through ``CompilerSession.compile`` once per target,
which is what a user of the driver calls.  Traced, the same work is done as
the driver's steps called one by one from here — build, ``cache_key``,
``legalize``, ``optimize(observer=...)``, then ``cache_key`` and ``emit`` per
target — each inside its own span, so every layer's time is measured where
it is spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.driver import emit
from repro.core.passes import optimize
from repro.core.rewrite import legalize

TARGETS = ("python_exec", "c99", "cuda")


@dataclass
class Compiled:
    """Artifacts of one family and what the compile produced."""

    family: object
    artifacts: dict
    lowered: object
    legalized_statements: int | None = None
    rounds: int | None = None
    last_round_s: float | None = None
    signature_s: float | None = None
    emit_s: dict = field(default_factory=dict)
    walk_s: float | None = None

    @property
    def statements(self) -> int:
        return len(self.lowered.body)


def compile_family(session, family, recorder, targets=TARGETS, **ids) -> Compiled:
    """Compile ``family`` to every target in ``targets`` (fresh work unless cached)."""
    options = family.config().rewrite_options()
    if not recorder.enabled:
        kernel = family.build()
        artifacts = {
            target: session.compile(kernel, target=target, options=options)
            for target in targets
        }
        lowered = (
            artifacts["python_exec"].kernel
            if "python_exec" in artifacts
            else session.lower(kernel, options=options)
        )
        return Compiled(family, artifacts, lowered)

    ids = {"kernel": family.label, **ids}
    walk_started = time.perf_counter()
    with recorder.span("kernels.build", **ids):
        kernel = family.build()
    with recorder.span("driver.key", **ids):
        session.cache_key(kernel, None, options)
    with recorder.span("rewrite.legalize", **ids):
        legalized = legalize(kernel, options)
    pass_records = []
    with recorder.span("passes.optimize", **ids) as span:
        lowered = optimize(
            legalized,
            pipeline=session.pipeline,
            observer=lambda *record: pass_records.append(record),
        )
    optimize_s = span.end - span.start
    rounds = 1 + max(record[1] for record in pass_records)
    compiled = Compiled(
        family,
        {},
        lowered,
        legalized_statements=len(legalized.body),
        rounds=rounds,
        last_round_s=sum(record[2] for record in pass_records if record[1] == rounds - 1),
        signature_s=optimize_s - sum(record[2] for record in pass_records),
    )
    for target in targets:
        with recorder.span("driver.key", target=target, **ids):
            session.cache_key(kernel, target, options)
        started = time.perf_counter()
        with recorder.span("codegen.emit", target=target, **ids):
            compiled.artifacts[target] = emit(lowered, target)
        compiled.emit_s[target] = time.perf_counter() - started
    compiled.walk_s = time.perf_counter() - walk_started
    return compiled


def untraced_seconds(compiled_list) -> float:
    """Wall time of ``session.compile`` on the same families and targets."""
    from repro.core.driver import CompilerSession

    from mbench.spans import Recorder

    session = CompilerSession()
    started = time.perf_counter()
    for compiled in compiled_list:
        compile_family(session, compiled.family, Recorder(False), targets=tuple(compiled.artifacts))
    return time.perf_counter() - started
