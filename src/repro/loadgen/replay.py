"""The replay engine: drive a serving tier through a trace, faithfully.

Replays a :class:`~repro.loadgen.trace.Trace` against anything with the
server front door — a :class:`~repro.serve.KernelServer` or a
:class:`~repro.serve.supervisor.ShardSupervisor` (local socketpair shards or TCP
``--connect`` shards; the engine never cares which).  Per-request deadlines
ride :meth:`submit`'s ``deadline_ms`` onto the wire, where a shard sheds
late results; the engine additionally counts a *client-observed* miss for
any request whose latency exceeded its budget, so deadline accounting works
against a single in-process server too.

**Determinism.**  The replay hot path calls nothing from the ``random``
module (the trace generator's seeded instance is the harness's only RNG) —
a replayed trace is a pure function of the trace document and the cluster's
behaviour, which is what makes byte-identical trace replay meaningful.

**Fault injection.**  A :class:`ReplayFault` runs an arbitrary action —
typically :meth:`~repro.serve.supervisor.ShardSupervisor.kill_shard` — the
moment a configurable fraction of the trace has been injected, and the
engine records when it fired.  The SLO reporter derives the recovery window
(fault time → first completion of a request submitted after the fault) from
the per-request timeline, and the chaos test asserts zero lost requests
across the kill: every future resolves, because the supervisor re-routes a
dead shard's pending work to its ring successors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable

from repro.errors import DeadlineExceededError, LoadGenError, ReproError
from repro.tenancy import DEFAULT_TENANT
from repro.loadgen.trace import ARRIVAL_CLOSED, Trace

__all__ = ["ReplayFault", "ReplayResult", "RequestOutcome", "replay"]

#: How long the engine waits for one straggler future after the last
#: injection before declaring the request lost (a lost request is a harness
#: failure — the supervisor's recovery machinery must resolve every future).
DEFAULT_RESULT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class RequestOutcome:
    """One replayed request's fate, on the client-observed timeline.

    Timestamps are seconds relative to replay start.  ``ok`` is a served
    result; ``deadline_missed`` covers both shard-side sheds (the
    :class:`~repro.errors.DeadlineExceededError` reply) and client-observed
    budget overruns on otherwise-successful results; ``error`` is the
    exception class name for every other failure (a tenant over its quota
    shows up here as ``"QuotaExceededError"``); ``lost`` marks a future
    that never resolved — always a bug, and what the chaos test pins at
    zero.  ``tenant`` is the namespace the request was submitted under, so
    the SLO reporter can break the run out per tenant.
    """

    suite: str
    index: int
    submitted_at_s: float
    completed_at_s: float
    latency_s: float
    ok: bool
    warm: bool
    deadline_missed: bool
    error: str | None
    lost: bool = False
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class ReplayFault:
    """Kill something mid-replay: run ``action`` at ``at_fraction`` progress.

    ``at_fraction`` is the fraction of the trace's events injected before
    the action fires (0.5 = the midpoint).  ``action`` is any zero-argument
    callable; the canonical one is
    ``lambda: supervisor.kill_shard(shard_id)``.  An action that raises
    aborts the replay — a broken fault hook must not masquerade as a
    surviving cluster.
    """

    action: Callable[[], None]
    at_fraction: float = 0.5

    def trigger_index(self, total_events: int) -> int:
        """The 0-based event index before which the action fires."""
        if not 0.0 <= self.at_fraction <= 1.0:
            raise LoadGenError(
                f"fault at_fraction must be within [0, 1], got {self.at_fraction}"
            )
        return min(total_events - 1, int(total_events * self.at_fraction))


@dataclass(frozen=True)
class ReplayResult:
    """The whole replay on one timeline: per-request outcomes plus markers."""

    trace: Trace
    outcomes: tuple[RequestOutcome, ...]
    duration_s: float
    fault_at_s: float | None = None

    @property
    def lost_requests(self) -> int:
        """Futures that never resolved — must be zero for a healthy tier."""
        return sum(1 for outcome in self.outcomes if outcome.lost)


class _Recorder:
    """Collects outcomes in event order, from any completing thread."""

    def __init__(self, started_monotonic: float, total: int) -> None:
        self._started = started_monotonic
        self._outcomes: list[RequestOutcome | None] = [None] * total
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.monotonic() - self._started

    def record(self, position: int, outcome: RequestOutcome) -> None:
        with self._lock:
            self._outcomes[position] = outcome

    def outcomes(self) -> tuple[RequestOutcome, ...]:
        with self._lock:
            missing = [pos for pos, one in enumerate(self._outcomes) if one is None]
            if missing:
                raise LoadGenError(
                    f"replay finished with unrecorded outcomes at {missing}"
                )
            return tuple(self._outcomes)  # type: ignore[arg-type]


def _settle(event, recorder, position, submitted_at, future, timeout_s) -> None:
    """Wait for one future and classify its outcome."""
    suite, index, tenant = event.suite, event.index, event.tenant
    try:
        result = future.result(timeout=timeout_s)
    except DeadlineExceededError:
        completed = recorder.now()
        recorder.record(
            position,
            RequestOutcome(
                suite=suite,
                index=index,
                submitted_at_s=submitted_at,
                completed_at_s=completed,
                latency_s=completed - submitted_at,
                ok=False,
                warm=False,
                deadline_missed=True,
                error=None,
                tenant=tenant,
            ),
        )
        return
    except (FutureTimeoutError, TimeoutError):
        completed = recorder.now()
        recorder.record(
            position,
            RequestOutcome(
                suite=suite,
                index=index,
                submitted_at_s=submitted_at,
                completed_at_s=completed,
                latency_s=completed - submitted_at,
                ok=False,
                warm=False,
                deadline_missed=False,
                error="Timeout",
                lost=True,
                tenant=tenant,
            ),
        )
        return
    except BaseException as error:  # noqa: BLE001 - classified, not handled
        completed = recorder.now()
        recorder.record(
            position,
            RequestOutcome(
                suite=suite,
                index=index,
                submitted_at_s=submitted_at,
                completed_at_s=completed,
                latency_s=completed - submitted_at,
                ok=False,
                warm=False,
                deadline_missed=False,
                error=type(error).__name__,
                tenant=tenant,
            ),
        )
        return
    completed = recorder.now()
    latency_s = completed - submitted_at
    missed = (
        event.deadline_ms is not None and latency_s * 1000.0 > event.deadline_ms
    )
    recorder.record(
        position,
        RequestOutcome(
            suite=suite,
            index=index,
            submitted_at_s=submitted_at,
            completed_at_s=completed,
            latency_s=latency_s,
            ok=True,
            warm=bool(getattr(result, "warm", False)),
            deadline_missed=missed,
            error=None,
            tenant=tenant,
        ),
    )


def replay(
    server,
    trace: Trace,
    fault: ReplayFault | None = None,
    result_timeout_s: float = DEFAULT_RESULT_TIMEOUT_S,
) -> ReplayResult:
    """Replay ``trace`` against ``server``; returns the full outcome timeline.

    ``server`` is anything with the ``submit(request, deadline_ms=...)``
    front door.  Open-loop traces are injected on their fixed-rate schedule
    from this thread (results settle in the background and are collected at
    the end); closed-loop traces run ``trace.clients`` worker threads, each
    submitting its next event as soon as the previous result settles.
    """
    if not trace.events:
        raise LoadGenError("cannot replay an empty trace")
    events = trace.events
    fault_index = fault.trigger_index(len(events)) if fault is not None else None
    started = time.monotonic()
    recorder = _Recorder(started, len(events))
    fault_at_s: list[float] = []

    def maybe_inject(position: int) -> None:
        if fault is not None and position == fault_index:
            fault_at_s.append(recorder.now())
            fault.action()

    def submit(position: int):
        """Submit one event; returns (submitted_at, future | None)."""
        event = events[position]
        submitted_at = recorder.now()
        # The tenant kwarg rides along only when the event names one, so
        # untenanted traces still replay against pre-tenant server stand-ins
        # (the same additive-field discipline the wire protocol follows).
        kwargs = (
            {"tenant": event.tenant} if event.tenant != DEFAULT_TENANT else {}
        )
        try:
            future = server.submit(
                event.request(trace.device),
                deadline_ms=event.deadline_ms,
                **kwargs,
            )
        except ReproError as error:
            # A synchronous refusal (closed server, invalid request, a
            # tenant over its admission quota) is an outcome, not a crash:
            # record it and keep replaying.
            recorder.record(
                position,
                RequestOutcome(
                    suite=event.suite,
                    index=event.index,
                    submitted_at_s=submitted_at,
                    completed_at_s=submitted_at,
                    latency_s=0.0,
                    ok=False,
                    warm=False,
                    deadline_missed=False,
                    error=type(error).__name__,
                    tenant=event.tenant,
                ),
            )
            return submitted_at, None
        return submitted_at, future

    if trace.arrival == ARRIVAL_CLOSED:
        positions = iter(range(len(events)))
        cursor_lock = threading.Lock()
        failures: list[BaseException] = []

        def worker() -> None:
            try:
                while True:
                    with cursor_lock:
                        position = next(positions, None)
                        if position is None:
                            return
                        maybe_inject(position)
                    submitted_at, future = submit(position)
                    if future is not None:
                        _settle(
                            events[position],
                            recorder,
                            position,
                            submitted_at,
                            future,
                            result_timeout_s,
                        )
            except BaseException as error:  # noqa: BLE001 - re-raised below
                failures.append(error)

        threads = [
            threading.Thread(
                target=worker, name=f"repro-loadgen-client-{client}", daemon=True
            )
            for client in range(trace.clients or 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            # A harness bug (most likely a broken fault hook) must abort
            # the replay, not masquerade as a clean run with holes in it.
            raise failures[0]
    else:
        in_flight: list[tuple[int, float, object]] = []
        for position, event in enumerate(events):
            # Fixed-rate schedule: injection lag means the *cluster* fell
            # behind, never that the generator slowed down for it.
            target = (event.at_ms or 0.0) / 1000.0
            delay = target - recorder.now()
            if delay > 0:
                time.sleep(delay)
            maybe_inject(position)
            submitted_at, future = submit(position)
            if future is not None:
                in_flight.append((position, submitted_at, future))
        for position, submitted_at, future in in_flight:
            _settle(
                events[position],
                recorder,
                position,
                submitted_at,
                future,
                result_timeout_s,
            )

    return ReplayResult(
        trace=trace,
        outcomes=recorder.outcomes(),
        duration_s=recorder.now(),
        fault_at_s=fault_at_s[0] if fault_at_s else None,
    )
