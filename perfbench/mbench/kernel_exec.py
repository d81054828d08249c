"""kernel-exec: run the generated code, natively and as ``python_exec``.

Set-up compiles every exec config to ``python_exec`` and ``c99`` and builds
each C unit with ``cc -O2 -shared -fPIC`` (two builds at a time, overlapping
the next compile).  Each cycle then runs every config over its seeded batch:
``python_exec`` once per element, the native ``_batch`` entry a fixed number
of times over the whole batch, and checks both against bigints element by
element.  Operation: one element through native C (``op_ms`` is the
geometric mean over configs of the fastest batch call's time per element,
reported as ``native_ns_per_op``).  Pass: one cycle (``work_s``, made
of each config's fastest ``python_exec`` batch and native call, nearly all
``python_exec``: ``pyexec_us_per_op`` times the batch).  Both are min-of-k:
on a shared host whole seconds run at half speed, and a median moves with
their share.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

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
from mbench.compile import compile_family, untraced_seconds
from mbench.inputs import Family, draw_batch
from mbench.native import NativeKernel, abort_build, find_cc, finish_build, start_build
from mbench.spans import Recorder

CONFIGS = (
    Family("cooley_tukey", 256, "schoolbook"),
    Family("gentleman_sande", 384, "karatsuba"),
    Family("vmul", 384, "schoolbook"),
    Family("cooley_tukey", 512, "karatsuba"),
    Family("cooley_tukey", 768, "schoolbook"),
    Family("vmul", 1024, "schoolbook"),
)
BATCH = 128
NATIVE_CALLS = 20
SETUP_REPEATS = 2
PARALLEL_BUILDS = 2


class Unavailable(RuntimeError):
    """The native metrics cannot be measured here."""


def _setup(seed: int, out_dir: Path, recorder) -> dict:
    cc = find_cc()
    if cc is None:
        raise Unavailable("no C compiler (`cc`) on PATH")
    workdir = Path(tempfile.mkdtemp(prefix="kernel-exec-", dir=out_dir))
    session = CompilerSession()
    state = {"workdir": workdir, "configs": [], "compiled": []}
    building = []

    def finish_one():
        family, process, so_path, compiled, build_started = building.pop(0)
        finish_build(process)
        state["cc_s"][family] = time.perf_counter() - build_started
        state["configs"].append((family, compiled, so_path))

    state["cc_s"] = {}
    try:
        for family in CONFIGS:
            compiled = compile_family(session, family, recorder, targets=("python_exec", "c99"))
            state["compiled"].append(compiled)
            while len(building) >= PARALLEL_BUILDS:
                with recorder.span("exec.cc", kernel=building[0][0].label):
                    finish_one()
            process, so_path = start_build(cc, compiled.artifacts["c99"], workdir, compiled.lowered.name)
            building.append((family, process, so_path, compiled, time.perf_counter()))
        while building:
            with recorder.span("exec.cc", kernel=building[0][0].label):
                finish_one()
        state["runs"] = [
            _prepare(family, compiled, so_path, seed, recorder)
            for family, compiled, so_path in sorted(state["configs"], key=lambda item: CONFIGS.index(item[0]))
        ]
    except BaseException:
        for _, process, *_ in building:
            abort_build(process)
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return state


def _prepare(family, compiled, so_path, seed: int, recorder) -> dict:
    """Load one built config and marshal its seeded batch once."""
    native = NativeKernel(compiled.lowered, so_path)
    uniform, elements = draw_batch(family, seed, BATCH)
    prepared, outputs = native.prepare(uniform, elements)
    return {
        "family": family,
        "python": compiled.artifacts["python_exec"],
        "native": native,
        "prepared": prepared,
        "outputs": outputs,
        "uniform": uniform,
        "elements": elements,
        "want": expected_outputs(family, uniform, elements, recorder, kernel=family.label),
    }


def _teardown(state) -> None:
    shutil.rmtree(state["workdir"], ignore_errors=True)


def _cycles(state, seconds: float, outcome: Outcome, recorder):
    """Cycle over the configs for ``seconds``; per-config samples."""
    native_ns = {run["family"]: [] for run in state["runs"]}
    python_us = {run["family"]: [] for run in state["runs"]}
    cycles = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not cycles:
        cycles += 1
        for run in state["runs"]:
            family = run["family"]
            got_python, python_s = run_python(run["python"], run["uniform"], run["elements"], recorder, kernel=family.label)
            python_us[family].append(1e6 * python_s / len(run["elements"]))
            for call in range(NATIVE_CALLS):
                with recorder.span("exec.native", kernel=family.label):
                    call_started = time.perf_counter()
                    run["native"].call(run["prepared"])
                    call_s = time.perf_counter() - call_started
                native_ns[family].append(1e9 * call_s / len(run["elements"]))
            got_native = run["native"].layout.unpack(run["outputs"], len(run["elements"]))
            count_mismatches(outcome, f"{family.label} python_exec", got_python, run["want"])
            count_mismatches(outcome, f"{family.label} native", got_native, run["want"])
    return cycles, native_ns, python_us


def best_cycle_s(native_ns: dict, python_us: dict) -> float:
    """One cycle at each config's fastest python_exec batch and native call."""
    return sum(
        (min(python_us[family]) * 1e3 + min(native_ns[family])) * BATCH / 1e9
        for family in python_us
    )


def run(seed: int, seconds: float, trace: bool, started: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    setup_recorder = Recorder(trace)
    before_setup = time.perf_counter()
    try:
        state, setup_body_s = repeated_setup(
            lambda: _setup(seed, out_dir, setup_recorder), _teardown, 1 if trace else SETUP_REPEATS
        )
    except Unavailable as reason:
        raise SystemExit(f"kernel-exec: native metrics unavailable: {reason}")
    setup_s = before_setup - started + setup_body_s
    try:
        cycles, native_ns, python_us = _cycles(state, seconds, outcome, Recorder(False))
        native_best = {family: min(samples) for family, samples in native_ns.items()}
        native_p50 = {family: stats.median(samples) for family, samples in native_ns.items()}
        python_p50 = {family: stats.median(samples) for family, samples in python_us.items()}
        python_best = {family: min(samples) for family, samples in python_us.items()}
        outcome.metrics = {
            "setup_s": (setup_s, "s"),
            "work_s": (best_cycle_s(native_ns, python_us), "s"),
            "op_ms": (stats.geomean(native_best.values()) / 1e6, "ms"),
        }
        samples = sum(len(values) for values in native_ns.values())
        outcome.line("native_ns_per_op", stats.geomean(native_best.values()), "ns/element",
                     f"geomean over {len(CONFIGS)} configs of the fastest of {samples // len(CONFIGS)} batch calls of {BATCH}")
        outcome.line("native_p50_ns_per_op", stats.geomean(native_p50.values()), "ns/element",
                     "geomean over configs of the median batch call")
        outcome.line("pyexec_us_per_op", stats.geomean(python_best.values()), "us/element",
                     f"geomean over {len(CONFIGS)} configs of the fastest of {cycles} batches; "
                     f"of medians {stats.geomean(python_p50.values()):.6g}")
        for family in native_best:
            outcome.line(f"exec.native_ns.{family.label}", native_best[family], "ns/element",
                         f"fastest call; median {native_p50[family]:.6g}")
            outcome.line(f"exec.pyexec_us.{family.label}", python_best[family], "us/element",
                         f"fastest batch; median {python_p50[family]:.6g}")
        outcome.line("exec.cc_ms", 1000 * sum(state["cc_s"].values()), "ms", "cc wall time summed over configs, last set-up")
        outcome.trace["configs"] = [family.label for family in CONFIGS]

        if trace:
            recorder = Recorder(True)
            _, traced_native, traced_python = _cycles(state, seconds, outcome, recorder)
            record_trace(
                outcome, {"setup": setup_recorder, "measure": recorder}, state["compiled"], untraced_seconds(state["compiled"]),
                best_cycle_s(native_ns, python_us), best_cycle_s(traced_native, traced_python),
            )
            table = outcome.trace["self_time"]
            pack = table.get("exec.pack", {"self_s": 0.0, "calls": 0})
            outcome.line("exec.pack_us", 1e6 * pack["self_s"] / max(pack["calls"] // 2, 1), "us/element",
                         "pack_inputs + unpack_outputs")
    finally:
        _teardown(state)
    return outcome
