"""serve-warm: warm requests through a pipe shard and a TCP shard.

The cluster is ``ShardSupervisor(shards=1, connect=(listener,))``: one local
shard process on a pipe (replies carry pickled kernels) and one
``python -m repro.serve --listen`` process on an OS-picked localhost port
(replies carry source).  Set-up warms 16 pinned families, half routed to
each transport and each half with a >=384-bit family, and compiles each
locally as the reference.  Two closed-loop clients then draw families by a
seeded, skewed popularity (see :func:`popularity`).  Every reply must be
warm and carry the reference source.  Operation: one request; ``op_ms`` is
the geometric mean over the two transports of the 10th-percentile latency,
the cost of a request that does not queue behind the other client: pipe
replies take several times longer than TCP ones, so the overall median
jumps between the two, and queueing, unlike the wire work, follows the
host's load (medians moved 25% between runs, 10th percentiles 8-13%).
Pass: 16 requests; ``work_s`` is the measured time over completed requests
times 16, i.e. 16 / ``warm_rps``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

from repro.core.driver import CompilerSession
from repro.serve import KernelServer, ServeRequest, ShardSupervisor
from repro.serve import protocol

from mbench import stats
from mbench.common import Outcome, record_trace, repeated_setup
from mbench.compile import compile_family, untraced_seconds
from mbench.inputs import Family, rng_for
from mbench.spans import Recorder

#: Pairs of families with generated sources of similar size, and the shard
#: each pair routes to: shard 0 is the local pipe, shard 1 the listener.
PAIRS = (
    (0, Family("cooley_tukey", 64), Family("vsub", 192)),
    (0, Family("axpy", 128), Family("vadd", 320)),
    (0, Family("vmul", 192), Family("vmul", 256)),
    (0, Family("cooley_tukey", 384), Family("vmul", 512)),
    (1, Family("vmul", 64, "karatsuba"), Family("vadd", 128)),
    (1, Family("vsub", 384), Family("cooley_tukey", 128)),
    (1, Family("axpy", 192), Family("cooley_tukey", 192)),
    (1, Family("gentleman_sande", 384), Family("axpy", 512)),
)
FAMILIES = tuple((family, shard) for shard, *pair in PAIRS for family in pair)
#: Within a pair the seed picks which member is requested this much more.
SKEW = 3.0
TRANSPORTS = {0: "pipe", 1: "tcp"}
CLIENTS = 2
BLOCK = 16
WARMUP_S = 0.5
SETUP_REPEATS = 2
LISTENER_TIMEOUT_S = 60.0


def request_for(family: Family) -> ServeRequest:
    if family.is_butterfly:
        return ServeRequest.ntt(family.bits, size=4096, operation=family.op, tune=False,
                                multiplication=family.multiplication)
    return ServeRequest.blas(family.op, family.bits, tune=False, multiplication=family.multiplication)


def popularity(seed: int) -> list[float]:
    """Per-family request weights: every pair has the same share, and inside
    a pair the seed picks the hot member, so the seed moves which family is
    hot but not the cost mix."""
    rng = rng_for(seed, "serve-warm", "popularity")
    weights = []
    for _ in PAIRS:
        pair = [SKEW, 1.0]
        rng.shuffle(pair)
        weights.extend(weight / (SKEW + 1.0) for weight in pair)
    return weights


def start_listener(root_src: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Spawn ``python -m repro.serve --listen`` on a free port; wait for it."""
    env = dict(os.environ, PYTHONPATH=root_src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    found = {}
    announced = threading.Event()

    def read_stdout():
        # Keeps draining after the announcement so the listener never
        # blocks on a full pipe.
        for line in process.stdout:
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match and not announced.is_set():
                found["address"] = (match.group(1), int(match.group(2)))
                announced.set()

    threading.Thread(target=read_stdout, daemon=True).start()
    announced.wait(LISTENER_TIMEOUT_S)
    if "address" not in found:
        stop_process(process)
        raise RuntimeError("TCP listener did not announce its address")
    return process, found["address"]


def stop_process(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _setup(root_src: str, recorder) -> dict:
    listener, address = start_listener(root_src)
    state = {"listener": listener}
    try:
        supervisor = ShardSupervisor(shards=1, connect=(address,), workers=2)
        state["supervisor"] = supervisor
        requests = [request_for(family) for family, _ in FAMILIES]
        futures = [supervisor.submit(request) for request in requests]
        session = CompilerSession()
        state["compiled"] = []
        reference = {}
        for (family, _), request in zip(FAMILIES, requests):
            compiled = compile_family(session, family, recorder, targets=("python_exec",))
            state["compiled"].append(compiled)
            reference[request] = compiled.artifacts["python_exec"].source
        for future in futures:
            future.result()
        state["reference"] = reference
        state["requests"] = requests
        state["routes"] = {request: supervisor.router.route(request) for request in requests}
    except BaseException:
        _teardown(state)
        raise
    return state


def _teardown(state) -> None:
    supervisor = state.get("supervisor")
    if supervisor is not None:
        supervisor.close()
    stop_process(state["listener"])


def _source(artifact) -> str:
    return artifact if isinstance(artifact, str) else artifact.source


def closed_loop(state, seed: int, seconds: float, outcome: Outcome | None, recorder, tag: str = "run"):
    """Two clients for ``seconds``.

    Returns ``(done, latency, transport, request, problem)`` per reply in
    completion order; ``problem`` is ``None`` for a correct warm reply.
    """
    supervisor = state["supervisor"]
    requests = state["requests"]
    weights = popularity(seed)
    stop = threading.Event()
    lock = threading.Lock()
    records = []
    errors = []

    def client(index: int) -> None:
        rng = rng_for(seed, "serve-warm", tag, "client", index)
        try:
            while not stop.is_set():
                request = rng.choices(requests, weights)[0]
                transport = TRANSPORTS[state["routes"][request]]
                started = time.perf_counter()
                with recorder.span("supervisor.serve", transport=transport, bits=request.bits):
                    try:
                        result = supervisor.serve(request)
                    except Exception as error:  # counted, the loop goes on
                        result = error
                done = time.perf_counter()
                # Check now and keep no reply: holding every decoded kernel
                # until the end would make peak RSS measure this loop.
                problem = _check(state, request, result)
                with lock:
                    records.append((done, done - started, transport, request, problem))
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(seconds)
    finally:
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[0]
    records.sort(key=lambda record: record[0])
    if outcome is not None:
        for _, _, _, request, problem in records:
            outcome.attempted += 1
            if problem is not None:
                outcome.fail(1, f"{request.key()}: {problem}")
    return records


def _check(state, request, result) -> str | None:
    """Why a reply is not a correct warm reply, or ``None``."""
    if isinstance(result, Exception):
        return repr(result)
    if not result.warm:
        return "reply not warm"
    if _source(result.artifact) != state["reference"][request]:
        return "artifact differs from the local compile"
    return None


def _blocks(records) -> list[float]:
    times = [record[0] for record in records]
    return [times[end] - times[end - BLOCK] for end in range(BLOCK, len(times), BLOCK)]


def run(seed: int, seconds: float, trace: bool, started: float, out_dir) -> Outcome:
    outcome = Outcome()
    root_src = os.path.join(os.path.dirname(out_dir), "src")
    setup_recorder = Recorder(trace)
    before_setup = time.perf_counter()
    state, setup_body_s = repeated_setup(
        lambda: _setup(root_src, setup_recorder), _teardown, 1 if trace else SETUP_REPEATS
    )
    setup_s = before_setup - started + setup_body_s
    try:
        split = {name: [f.label for (f, _), r in zip(FAMILIES, state["requests"])
                        if TRANSPORTS[state["routes"][r]] == name] for name in TRANSPORTS.values()}
        for (family, shard), request in zip(FAMILIES, state["requests"]):
            if state["routes"][request] != shard:
                outcome.fail(1, f"{family.label} routed to shard {state['routes'][request]}, expected {shard}")
        outcome.attempted += len(FAMILIES)
        closed_loop(state, seed, WARMUP_S, None, Recorder(False), tag="warmup")
        records = closed_loop(state, seed, seconds, outcome, Recorder(False))
        latencies = [record[1] for record in records]
        by_transport = {
            transport: [record[1] for record in records if record[2] == transport]
            for transport in TRANSPORTS.values()
        }
        blocks = _blocks(records)
        outcome.metrics = {
            "setup_s": (setup_s, "s"),
            "work_s": (BLOCK * seconds / len(records), "s"),
            "op_ms": (1000 * stats.geomean(stats.percentile(own, 0.1) for own in by_transport.values()), "ms"),
        }
        outcome.line("warm_rps", len(records) / seconds, "req/s", f"{len(records)} requests, {CLIENTS} closed-loop clients")
        outcome.line("warm_p50_ms", 1000 * stats.median(latencies), "ms")
        outcome.line("warm_p90_ms", 1000 * stats.percentile(latencies, 0.9), "ms")
        outcome.line("warm_p99_ms", 1000 * stats.percentile(latencies, 0.99), "ms")
        for transport, own in by_transport.items():
            outcome.line(f"supervisor.{transport}_p50_ms", 1000 * stats.median(own), "ms",
                         f"{len(own)} requests; families {', '.join(split[transport])}")
            outcome.line(f"supervisor.{transport}_p10_ms", 1000 * stats.percentile(own, 0.1), "ms")
        outcome.line("warm_block_p50_s", stats.median(blocks), "s", f"median over {len(blocks)} blocks of {BLOCK}")
        outcome.trace["split"] = split

        if trace:
            recorder = Recorder(True)
            traced = closed_loop(state, seed, seconds, outcome, recorder)
            _probes(state, seed, outcome, recorder)
            record_trace(
                outcome, {"setup": setup_recorder, "measure": recorder}, state["compiled"], untraced_seconds(state["compiled"]),
                stats.median(blocks), stats.median(_blocks(traced)),
            )
    finally:
        _teardown(state)
    return outcome


PROBE_REPEATS = 20


def _probes(state, seed: int, outcome: Outcome, recorder) -> None:
    """Route, resident-table and wire-codec calls, timed one layer at a time."""
    supervisor = state["supervisor"]
    for request in state["requests"]:
        for _ in range(PROBE_REPEATS):
            with recorder.span("supervisor.route", bits=request.bits):
                supervisor.router.route(request)

    resident, encode, decode, sizes = [], {}, {}, {}
    with KernelServer() as server:
        for request in state["requests"]:
            result = server.serve(request)
            transport = TRANSPORTS[state["routes"][request]]
            shipped = result if transport == "pipe" else protocol.source_only_result(result)
            reply = protocol.ServeReply(request_id=1, result=shipped)
            for _ in range(PROBE_REPEATS):
                started = time.perf_counter()
                with recorder.span("serve.serve", bits=request.bits):
                    server.serve(request)
                resident.append(time.perf_counter() - started)
                started = time.perf_counter()
                with recorder.span("protocol.encode", transport=transport, bits=request.bits):
                    data = protocol.encode_message(reply, version=protocol.MAX_PROTOCOL_VERSION)
                encoded = time.perf_counter()
                with recorder.span("protocol.decode", transport=transport, bits=request.bits):
                    protocol.decode_message(data, allow_pickled=transport == "pipe")
                encode.setdefault(transport, []).append(encoded - started)
                decode.setdefault(transport, []).append(time.perf_counter() - encoded)
                sizes.setdefault(transport, []).append(len(data))
    outcome.line("serve.resident_us", 1e6 * stats.median(resident), "us", "warm in-process serve")
    for transport in TRANSPORTS.values():
        outcome.line(f"protocol.encode_us.{transport}", 1e6 * stats.median(encode[transport]), "us")
        outcome.line(f"protocol.decode_us.{transport}", 1e6 * stats.median(decode[transport]), "us")
        outcome.line(f"protocol.reply_kb.{transport}", stats.median(sizes[transport]) / 1024, "KB")
    route = [span.duration for span in recorder.spans if span.name == "supervisor.route"]
    outcome.line("supervisor.route_us", 1e6 * stats.median(route), "us")

    from repro.obs.trace import Tracer

    untraced = closed_loop(state, seed, 2.0, None, Recorder(False), tag="obs-off")
    supervisor.tracer = Tracer(sample_rate=0.01)
    try:
        sampled = closed_loop(state, seed, 2.0, None, Recorder(False), tag="obs-on")
    finally:
        supervisor.tracer = Tracer(sample_rate=0.0)
    outcome.line("obs.sampled_rps_ratio", len(sampled) / max(len(untraced), 1), "ratio",
                 "2 s at 1% sampling over 2 s untraced; ROADMAP bound >= 0.9")
