"""compile-sweep: cold compiles of a seeded, width-stratified kernel set.

At each width one BLAS op (one that multiplies, so the drawn algorithm
matters) and one butterfly variant are drawn; at each width one of the two
uses Karatsuba and the other schoolbook, the seed deciding which.  Each pass
compiles the set cold — a fresh ``CompilerSession`` — to ``python_exec``,
``c99`` and ``cuda``, then checks every ``python_exec`` artifact against
bigints on the seeded batch.  Operation: one kernel compiled to the three
targets (``op_ms`` is the mean, ``work_s`` over the set size: the median
moves with the seeded mix).  Pass: the whole set; ``work_s`` is its
time, reported as ``compile_s``.
"""

from __future__ import annotations

import time

from repro.core.driver import CompilerSession

from mbench import stats
from mbench.common import (
    Outcome,
    count_mismatches,
    expected_outputs,
    record_trace,
    repeated_setup,
    run_python,
)
from mbench.compile import compile_family
from mbench.inputs import BUTTERFLIES, Family, draw_batch, rng_for
from mbench.spans import Recorder

WIDTHS = (128, 256, 384, 512, 768, 1024)
MULTIPLYING_BLAS_OPS = ("vmul", "axpy")
CHECK_ELEMENTS = 16
SETUP_REPEATS = 3


def draw_families(seed: int) -> list[Family]:
    rng = rng_for(seed, "compile-sweep")
    families = []
    for bits in WIDTHS:
        karatsuba_on_blas = rng.random() < 0.5
        families.append(
            Family(rng.choice(MULTIPLYING_BLAS_OPS), bits,
                   "karatsuba" if karatsuba_on_blas else "schoolbook")
        )
        families.append(
            Family(rng.choice(BUTTERFLIES), bits,
                   "schoolbook" if karatsuba_on_blas else "karatsuba")
        )
    rng.shuffle(families)
    return families


def _setup(seed: int, recorder) -> dict:
    families = draw_families(seed)
    batches = {}
    for family in families:
        uniform, elements = draw_batch(family, seed, CHECK_ELEMENTS)
        batches[family] = (uniform, elements, expected_outputs(family, uniform, elements, recorder))
    # Import every lazily loaded module once, so the first timed compile
    # does not pay for them.
    compile_family(CompilerSession(), Family("vmul", 128), Recorder(False))
    return {"families": families, "batches": batches}


def _pass(state, outcome: Outcome, recorder):
    """One cold pass: (compile seconds, per-kernel seconds, compiled, session)."""
    session = CompilerSession()
    per_kernel = []
    compiled_list = []
    for family in state["families"]:
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            compiled = compile_family(session, family, recorder)
        except Exception as error:  # a failed compile is counted, not fatal
            outcome.fail(1, f"compile {family.label}: {error!r}")
            continue
        per_kernel.append(time.perf_counter() - started)
        compiled_list.append(compiled)
        uniform, elements, want = state["batches"][family]
        got, _ = run_python(compiled.artifacts["python_exec"], uniform, elements, recorder, kernel=family.label)
        count_mismatches(outcome, family.label, got, want)
    return sum(per_kernel), per_kernel, compiled_list, session


def _passes(state, seconds: float, outcome: Outcome, recorder):
    totals, per_kernel, statements = [], [], set()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        total, kernels, compiled, session = _pass(state, outcome, recorder)
        totals.append(total)
        per_kernel.extend(kernels)
        statements.add(sum(item.statements for item in compiled))
        if len(statements) > 1:
            outcome.fail(1, f"generated statements differ between passes: {sorted(statements)}")
        pass_s = time.perf_counter() - pass_started
        if time.perf_counter() - started + pass_s > seconds:
            return totals, per_kernel, compiled, session


def run(seed: int, seconds: float, trace: bool, started: float, out_dir) -> Outcome:
    outcome = Outcome()
    setup_recorder = Recorder(trace)
    before_setup = time.perf_counter()
    state, setup_body_s = repeated_setup(lambda: _setup(seed, setup_recorder), lambda _: None, 1 if trace else SETUP_REPEATS)
    setup_s = before_setup - started + setup_body_s

    totals, per_kernel, compiled, session = _passes(state, seconds, outcome, Recorder(False))
    statements = sum(item.statements for item in compiled)
    cache = session.cache_info()
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "work_s": (stats.median(totals), "s"),
        "op_ms": (1000 * stats.median(totals) / len(state["families"]), "ms"),
    }
    outcome.line("compile_s", stats.median(totals), "s", f"median of {len(totals)} cold passes of {len(state['families'])} kernels x 3 targets")
    outcome.line("generated_statements", statements, "count", "final machine-word statements over the set")
    outcome.line("kernel_compile_p50_ms", 1000 * stats.median(per_kernel), "ms", f"{len(per_kernel)} kernel compiles")
    outcome.line("kernel_compile_p90_ms", 1000 * stats.percentile(per_kernel, 0.9), "ms")
    outcome.line("driver.cache_hit_ratio", cache.hit_rate, "share", f"of {cache.hits + cache.misses} lookups in the last pass")
    outcome.trace["kernels"] = [family.label for family in state["families"]]
    outcome.trace["generated_statements"] = statements

    if trace:
        recorder = Recorder(True)
        traced_totals, _, traced_compiled, _ = _passes(state, seconds, outcome, recorder)
        untraced_pass = stats.median(totals)
        traced_pass = stats.median(traced_totals)
        record_trace(
            outcome, {"setup": setup_recorder, "measure": recorder}, traced_compiled, untraced_pass, untraced_pass, traced_pass
        )
        traced_statements = sum(item.statements for item in traced_compiled)
        if traced_statements != statements:
            outcome.fail(1, f"traced walk gave {traced_statements} statements, session.compile {statements}")
        outcome.attempted += 1
        _detail(outcome, traced_compiled, recorder)
    return outcome


def _detail(outcome: Outcome, compiled, recorder) -> None:
    """Compile-layer times per kernel set, from the traced pass."""
    from mbench.spans import self_time_table

    table = self_time_table(recorder.spans)
    passes = max(1, table.get("codegen.emit", {"calls": 0})["calls"] // (3 * len(compiled)))

    def per_pass_ms(name):
        return 1000 * table.get(name, {"self_s": 0.0})["self_s"] / passes

    outcome.line("kernels.build_ms", per_pass_ms("kernels.build"), "ms", "per set")
    outcome.line("driver.key_ms", per_pass_ms("driver.key"), "ms", "per set")
    outcome.line("rewrite.legalize_ms", per_pass_ms("rewrite.legalize"), "ms", "per set")
    outcome.line("passes.optimize_ms", per_pass_ms("passes.optimize"), "ms", "per set")
    outcome.line("passes.last_round_ms", 1000 * sum(item.last_round_s for item in compiled), "ms", "per set, confirming rounds")
    outcome.line("passes.signature_ms", 1000 * sum(item.signature_s for item in compiled), "ms", "per set, optimize minus per-pass time")
    for target in ("python_exec", "c99", "cuda"):
        outcome.line(f"codegen.emit_ms.{target}", 1000 * sum(item.emit_s[target] for item in compiled), "ms", "per set")
