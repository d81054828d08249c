"""serve-cold: tuned requests into a fresh in-process server.

Each pass starts a fresh ``KernelServer`` (fresh session, in-memory tuning
db) and drains a seeded trace over 13 tuned families at 64-384 bits, two of
them non-powers of two.  Every family arrives first as a cold request
submitted together with two duplicates (in-flight dedup), later as warm
repeats; the seed draws the repeats and their order.  Two closed-loop
clients take trace items in order and wait for each item's replies.  After
the pass every served ``python_exec`` artifact is checked against bigints.
Operation: a family's first (cold) request; ``op_ms`` is their mean per
pass (a median over 13 so unequal families jumps between neighbours).
Pass: the whole trace (``work_s``, reported as ``cold_total_s``).
Both take the best of the run's passes (min-of-k): on a shared host, whole
seconds run at half speed, and a median moves with their share.
"""

from __future__ import annotations

import threading
import time

from repro.core.driver import CompilerSession
from repro.serve import KernelServer, ServeRequest
from repro.tune import Autotuner, TuningDatabase

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
from mbench.inputs import Family, draw_batch, rng_for
from mbench.spans import Recorder

FAMILIES = (
    Family("cooley_tukey", 64),
    Family("gentleman_sande", 64),
    Family("vadd", 64),
    Family("vmul", 64),
    Family("cooley_tukey", 128),
    Family("axpy", 128),
    Family("vsub", 128),
    Family("cooley_tukey", 192),
    Family("vmul", 192),
    Family("gentleman_sande", 256),
    Family("vadd", 256),
    Family("vsub", 320),
    Family("vadd", 384),
)
DEVICE = "rtx4090"
NTT_SIZE = 4096
CLIENTS = 2
DUPLICATES = 2
CHECK_ELEMENTS = 8
SETUP_REPEATS = 3


def request_for(family: Family) -> ServeRequest:
    if family.is_butterfly:
        return ServeRequest.ntt(family.bits, size=NTT_SIZE, operation=family.op, device=DEVICE)
    return ServeRequest.blas(family.op, family.bits, device=DEVICE)


def draw_trace(seed: int) -> list[tuple[Family, int]]:
    """``(family, copies)`` items: a cold item carries 1 + DUPLICATES copies.

    Cold items come first, in the fixed ``FAMILIES`` order, so the same
    families overlap (and share tuning micro-batches) under every seed; the
    seed draws how often each family repeats and the order of the repeats.
    """
    rng = rng_for(seed, "serve-cold", "trace")
    repeats = [(family, 1) for family in FAMILIES for _ in range(rng.randint(1, 3))]
    rng.shuffle(repeats)
    return [(family, 1 + DUPLICATES) for family in FAMILIES] + repeats


def _setup(seed: int, recorder) -> dict:
    trace = draw_trace(seed)
    batches = {}
    for family in FAMILIES:
        uniform, elements = draw_batch(family, seed, CHECK_ELEMENTS)
        batches[family] = (uniform, elements, expected_outputs(family, uniform, elements, recorder))
    # Load the tuner, server and codegen modules outside the timed passes.
    with KernelServer(workers=1) as server:
        server.serve(ServeRequest.blas("vadd", 64, device=DEVICE, tune=False))
    return {"trace": trace, "batches": batches}


def _pass(state, outcome: Outcome, recorder):
    """Drain the trace once; returns (seconds, cold latencies, results, server metrics)."""
    items = list(state["trace"])
    lock = threading.Lock()
    cold = {}
    served = {}
    errors = []

    with KernelServer(session=CompilerSession(), db=TuningDatabase()) as server:

        def client() -> None:
            while True:
                with lock:
                    if not items:
                        return
                    family, copies = items.pop(0)
                request = request_for(family)
                started = time.perf_counter()
                with recorder.span("serve.serve", kernel=family.label, copies=copies):
                    futures = [server.submit(request) for _ in range(copies)]
                    results = []
                    for future in futures:
                        try:
                            results.append(future.result())
                        except Exception as error:  # counted below
                            results.append(error)
                latency = time.perf_counter() - started
                with lock:
                    errors.extend((family, result) for result in results if isinstance(result, Exception))
                    if copies > 1:
                        cold[family] = latency
                    good = [result for result in results if not isinstance(result, Exception)]
                    if good:
                        served[family] = good[0]

        started = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            with lock:
                items.clear()  # on an interrupt, clients stop after their item
            for thread in threads:
                if thread.is_alive():
                    thread.join()
        elapsed = time.perf_counter() - started
        snapshot = server.metrics_snapshot()

    outcome.attempted += sum(copies for _, copies in state["trace"])
    for family, error in errors:
        outcome.fail(1, f"{family.label}: {error!r}")
    for family in FAMILIES:
        if family not in served:
            continue
        uniform, elements, want = state["batches"][family]
        got, _ = run_python(served[family].artifact, uniform, elements, Recorder(False))
        count_mismatches(outcome, f"{family.label} served", got, want)
    return elapsed, cold, served, snapshot


def _passes(state, seconds: float, outcome: Outcome, recorder):
    totals, cold, snapshots, served = [], [], [], {}
    started = time.perf_counter()
    while True:
        elapsed, pass_cold, served, snapshot = _pass(state, outcome, recorder)
        totals.append(elapsed)
        cold.append(pass_cold)
        snapshots.append(snapshot)
        if time.perf_counter() - started + elapsed > seconds:
            return totals, cold, snapshots, served


def run(seed: int, seconds: float, trace: bool, started: float, out_dir) -> Outcome:
    outcome = Outcome()
    setup_recorder = Recorder(trace)
    before_setup = time.perf_counter()
    state, setup_body_s = repeated_setup(lambda: _setup(seed, setup_recorder), lambda _: None,
                                         1 if trace else SETUP_REPEATS)
    setup_s = before_setup - started + setup_body_s

    totals, cold, snapshots, served = _passes(state, seconds, outcome, Recorder(False))
    first = [latency for pass_cold in cold for latency in pass_cold.values()]
    cold_means = [sum(pass_cold.values()) / len(pass_cold) for pass_cold in cold]
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "work_s": (min(totals), "s"),
        "op_ms": (1000 * min(cold_means), "ms"),
    }
    outcome.line("cold_total_s", min(totals), "s",
                 f"fastest of {len(totals)} passes of {len(state['trace'])} trace items; median {stats.median(totals):.6g}")
    outcome.line("cold_mean_ms", 1000 * min(cold_means), "ms",
                 f"smallest per-pass mean first-request latency; median {1000 * stats.median(cold_means):.6g}")
    outcome.line("cold_p50_ms", 1000 * stats.median(first), "ms", f"{len(first)} first requests")
    outcome.line("cold_p90_ms", 1000 * stats.percentile(first, 0.9), "ms")
    dedups = sum(snapshot.dedup_hits for snapshot in snapshots)
    submitted = DUPLICATES * len(FAMILIES) * len(snapshots)
    outcome.line("serve.dedup_share", dedups / submitted, "share", f"dedup hits per duplicate submitted ({submitted}); repeats that meet the cold request in flight also count")
    outcome.line("winners", ", ".join(f"{f.op}-{f.bits}:{r.config.multiplication[0]}{r.config.word_bits}"
                                      for f, r in sorted(served.items(), key=lambda item: item[0].bits)), "")

    if trace:
        recorder = Recorder(True)
        traced_totals, traced_cold, _, _ = _passes(state, seconds, outcome, recorder)
        compiled = _tune_beside(outcome, recorder, traced_cold[-1])
        record_trace(
            outcome, {"setup": setup_recorder, "measure": recorder}, compiled, untraced_seconds(compiled),
            stats.median(totals), stats.median(traced_totals),
        )
    return outcome


def _tune_beside(outcome: Outcome, recorder, cold_latency: dict) -> list:
    """``Autotuner.tune`` plus the winner's compile per family, fresh db each."""
    compiled_list, tune_s, candidates, overhead = [], [], [], []
    for family in FAMILIES:
        session = CompilerSession()
        workload = request_for(family).workload()
        started = time.perf_counter()
        with recorder.span("tune.tune", kernel=family.label):
            result = Autotuner(session=session, db=TuningDatabase()).tune(workload, DEVICE)
        tuned_s = time.perf_counter() - started
        winner = Family(family.op, family.bits, result.config.multiplication)
        started = time.perf_counter()
        if result.config.word_bits == 64:
            compiled_list.append(compile_family(CompilerSession(), winner, recorder, targets=("python_exec",)))
        compile_s = time.perf_counter() - started
        tune_s.append(tuned_s)
        candidates.append(session.stats().compilations)
        if family in cold_latency:
            overhead.append(cold_latency[family] - tuned_s - compile_s)
    outcome.line("tune.tune_ms", 1000 * stats.median(tune_s), "ms", f"median over {len(FAMILIES)} families, fresh db")
    outcome.line("tune.candidates", stats.median(candidates), "count", "compilations per tune")
    outcome.line("serve.cold_overhead_ms", 1000 * stats.median(overhead), "ms", "cold latency minus tune and winner compile")
    return compiled_list
