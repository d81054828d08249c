"""The wire protocol between shard processes and their supervisor.

Every message is one binary container: a JSON envelope for the control
fields plus the message's bulk payloads (artifact bodies) as out-of-band
byte frames:

.. code-block:: text

    b"\\x93MS2"            4-byte magic
    u32 BE                 envelope length
    envelope JSON          {"moma-serve": 2, "type": ..., "payload": ...,
                           "frames": [len0, len1, ...]}
    per frame: u32 BE length (must match the envelope's declared length)
               + the raw bytes

Payload fields reference frames by index (``{"encoding": "source",
"frame": 0}``) instead of embedding the bytes: kernel source crosses as
raw UTF-8, and decode slices the blob with memoryviews instead of
copying.  :func:`encode_message` /
:func:`decode_message` turn messages into container bytes and back.

The container moves over exactly one transport framing,
:class:`StreamConnection`: a 4-byte big-endian length prefix and the
container, on a connected socket.  Local shards get one end of a
``socket.socketpair()``, remote shards a TCP connection.

Message types (each a frozen dataclass):

* :class:`ServeCall` / :class:`ServeReply` — one kernel request and its
  served result.  Requests and results are correlated by ``request_id``, so
  a shard may answer out of order (its worker pool finishes warm requests
  long before cold ones).
* :class:`ErrorReply` — a failed request: the error's repro exception class
  name plus its message; :meth:`ErrorReply.exception` rebuilds a raisable
  error on the caller's side.
* :class:`StatsCall` / :class:`StatsReply` — one shard's metrics registry
  samples (:class:`ShardStats`): counters, gauges and fixed-bucket latency
  histograms, all summable, which is how the supervisor merges them.
* :class:`PingCall` / :class:`PongReply` — liveness probe used by the
  supervisor's monitor.
* :class:`HelloCall` / :class:`HelloReply` — the TCP transport handshake:
  the supervisor's first frame on a fresh connection pins the protocol
  version and assigns the shard its ring id for the session.
* :class:`ShutdownCall` — asks the shard to drain and exit cleanly.

**Artifacts.**  Every served artifact crosses as source text in a UTF-8
frame (:func:`encode_artifact` / :func:`decode_artifact`).  Backend text
(the ``cuda`` / ``c99`` targets) is just that frame; an executable
``python_exec`` :class:`~repro.core.codegen.python_exec.CompiledKernel`
adds its small JSON :meth:`CompiledKernel.interface` (limb layouts, word
width, output order) to the payload.  Only the
receiver decides whether to execute: ``decode_message(data, trusted=True)``
rebuilds the kernel from source and interface through a bounded cache
(:data:`KERNEL_CACHE_SIZE` entries), so a repeated reply never compiles
again; an untrusted decode returns the source text.  The supervisor
trusts the shards it spawned, and remote shards only when built with
``execute_remote=True``.

:data:`PROTOCOL_VERSION` is bumped on any *incompatible* change; additive,
optional payload fields may ride within a version — decoders ignore
unknown payload keys.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import socket
from dataclasses import dataclass

from repro import errors
from repro.errors import ProtocolError
from repro.core.codegen.python_exec import CompiledKernel
from repro.kernels.config import KernelConfig
from repro.obs.registry import check_samples
from repro.tenancy import DEFAULT_TENANT, validate_tenant
from repro.tune.space import Candidate, Workload
from repro.tune.tuner import TuningResult
from repro.serve.metrics import MetricsSnapshot
from repro.serve.server import ServeRequest, ServeResult

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PROTOCOL_VERSION",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "KERNEL_CACHE_SIZE",
    "ServeCall",
    "ServeReply",
    "ErrorReply",
    "StatsCall",
    "StatsReply",
    "ShardStats",
    "PingCall",
    "PongReply",
    "HelloCall",
    "HelloReply",
    "ControlCall",
    "ControlReply",
    "ShutdownCall",
    "encode_artifact",
    "decode_artifact",
    "source_only_result",
    "encode_message",
    "decode_message",
    "read_frame",
    "StreamConnection",
]

#: The container version.  Bumped on every *incompatible* wire change; a
#: decoder rejects other versions, and the hello pins it before any payload
#: is trusted.
PROTOCOL_VERSION = 4

#: Alias of :data:`PROTOCOL_VERSION`, kept for callers that still name it.
MAX_PROTOCOL_VERSION = PROTOCOL_VERSION

#: First bytes of every message.  0x93 is an invalid UTF-8 lead byte, so no
#: JSON text can be mistaken for a container.
FRAME_MAGIC = b"\x93MS2"

_ENVELOPE_KEY = "moma-serve"

#: Upper bound on one frame (a generous multiple of the largest kernels the
#: backends emit); guards a stream decoder against a corrupt length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _is_int(value) -> bool:
    """An integer wire field: JSON ``true``/``false`` do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


# -- artifact encoding -------------------------------------------------------

SOURCE_ENCODING = "source"

#: Kernels a trusted decode keeps rebuilt, keyed on source and interface.
KERNEL_CACHE_SIZE = 128


def encode_artifact(artifact: object, frames: list) -> dict:
    """One served artifact in its wire form.

    The source text goes **out of band**: its UTF-8 bytes are appended to
    ``frames`` and the returned ``{"encoding", "frame"}`` references that
    frame by index.  A :class:`CompiledKernel` adds ``"interface"``, its
    :meth:`~repro.core.codegen.python_exec.CompiledKernel.interface`.
    """
    if isinstance(artifact, CompiledKernel):
        payload = encode_artifact(artifact.source, frames)
        payload["interface"] = artifact.interface()
        return payload
    if isinstance(artifact, str):
        frames.append(artifact.encode("utf-8"))
        return {"encoding": SOURCE_ENCODING, "frame": len(frames) - 1}
    raise ProtocolError(
        f"cannot encode artifact of type {type(artifact).__name__} for the wire"
    )


def decode_artifact(payload: dict, trusted: bool = False, frames=()) -> object:
    """Rebuild an artifact from its wire form and the message's frames.

    Returns the source text, or — when ``trusted`` and the payload carries
    an interface — the executable :class:`CompiledKernel`, which runs that
    source: pass ``trusted`` only for peers whose kernels this process may
    execute.  ``frames`` is the message's out-of-band payload frames.
    """
    if not isinstance(payload, dict) or "encoding" not in payload or "frame" not in payload:
        raise ProtocolError(f"malformed artifact payload: {payload!r}")
    if payload["encoding"] != SOURCE_ENCODING:
        raise ProtocolError(f"unknown artifact encoding {payload['encoding']!r}")
    index = payload["frame"]
    if not _is_int(index) or not 0 <= index < len(frames):
        raise ProtocolError(
            f"artifact frame index {index!r} out of range (message has {len(frames)} frames)"
        )
    try:
        source = str(frames[index], "utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"source artifact frame is not UTF-8: {error}") from None
    interface = payload.get("interface")
    if interface is None or not trusted:
        return source
    try:
        return _rebuilt_kernel(source, json.dumps(interface, sort_keys=True))
    except Exception as error:  # noqa: BLE001 - any failure to rebuild is protocol-level
        raise ProtocolError(f"kernel artifact does not rebuild: {error}") from None


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _rebuilt_kernel(source: str, interface_json: str) -> CompiledKernel:
    return CompiledKernel.from_interface(source, json.loads(interface_json))


def source_only_result(result: ServeResult) -> ServeResult:
    """``result`` with an executable artifact replaced by its source text.

    What an untrusted receiver decodes anyway; kept for the serve-warm
    probe in ``perfbench/mbench/serve_warm.py``.
    """
    if isinstance(result.artifact, CompiledKernel):
        return dataclasses.replace(result, artifact=result.artifact.source)
    return result


# -- dataclass payload helpers ----------------------------------------------


def _rebuild(cls, payload: dict, context: str):
    """Build dataclass ``cls`` from a wire payload, ignoring unknown keys."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed {context} payload: {payload!r}")
    names = {field.name for field in dataclasses.fields(cls)}
    try:
        return cls(**{name: payload[name] for name in names if name in payload})
    except (TypeError, errors.ReproError) as error:
        raise ProtocolError(f"malformed {context} payload: {error}") from None


def _encode_tuning(tuning: TuningResult | None) -> dict | None:
    if tuning is None:
        return None
    payload = dataclasses.asdict(tuning)
    # Trials are search provenance (every scored candidate); they are local
    # diagnostics, not serving state, and can dominate the message size.
    payload.pop("trials", None)
    return payload


def _decode_tuning(payload: dict | None) -> TuningResult | None:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed tuning payload: {payload!r}")
    fields = dict(payload)
    fields["workload"] = _rebuild(Workload, fields.get("workload"), "workload")
    fields["candidate"] = _rebuild(Candidate, fields.get("candidate"), "candidate")
    fields["config"] = _rebuild(KernelConfig, fields.get("config"), "kernel config")
    fields["trials"] = ()
    return _rebuild(TuningResult, fields, "tuning result")


def _encode_request(request: ServeRequest) -> dict:
    return dataclasses.asdict(request)


def _decode_request(payload: dict) -> ServeRequest:
    return _rebuild(ServeRequest, payload, "serve request")


def _encode_result(result: ServeResult, frames: list) -> dict:
    return {
        "request": _encode_request(result.request),
        "artifact": encode_artifact(result.artifact, frames),
        "config": dataclasses.asdict(result.config),
        "fingerprint": result.fingerprint,
        "cache_key": result.cache_key,
        "tuning": _encode_tuning(result.tuning),
        "warm": result.warm,
        "latency_s": result.latency_s,
    }


def _decode_result(payload: dict, trusted: bool, frames) -> ServeResult:
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed serve result payload: {payload!r}")
    fields = dict(payload)
    fields["request"] = _decode_request(fields.get("request"))
    fields["artifact"] = decode_artifact(
        fields.get("artifact"), trusted=trusted, frames=frames
    )
    fields["config"] = _rebuild(KernelConfig, fields.get("config"), "kernel config")
    fields["tuning"] = _decode_tuning(fields.get("tuning"))
    return _rebuild(ServeResult, fields, "serve result")


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeCall:
    """One kernel request bound for a shard.

    ``trace`` is the **additive** distributed-tracing field: when the
    supervisor samples a request it attaches the trace context
    (:meth:`repro.obs.trace.TraceHandle.wire_field` — trace id, parent span
    id, sampled flag) so the shard's spans join the same trace.  Absent ⇒
    untraced.

    ``deadline_ms`` is a second additive field: the request's end-to-end
    latency budget in milliseconds.  A shard that finishes the request
    after the budget has elapsed (measured from its own decode of the
    call) sheds the result and answers with a
    :class:`~repro.errors.DeadlineExceededError` instead — the reply the
    traffic-replay harness counts as a deadline miss.  Absent ⇒ no
    deadline.

    ``tenant`` is a third additive field: the tenant namespace the request
    is served under (resident-table keys, tuning-db lookups, per-tenant
    metrics).  Absent ⇒ :data:`~repro.tenancy.DEFAULT_TENANT` — and the
    field is only *emitted* when non-default, so an untenanted envelope is
    byte-identical to the pre-tenant wire format.  Unlike the tolerant
    trace/deadline fields, a
    *present but invalid* tenant id (empty, ``::``/``/``/whitespace) is a
    hard :class:`~repro.errors.ProtocolError` at decode time: a corrupt
    tenant id would silently poison every key it scopes.
    """

    request_id: int
    request: ServeRequest
    trace: dict | None = None
    deadline_ms: float | None = None
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class ServeReply:
    """One successfully served result, correlated by ``request_id``."""

    request_id: int
    result: ServeResult


@dataclass(frozen=True)
class ErrorReply:
    """A failed request: the repro error class name and its message."""

    request_id: int
    error_type: str
    message: str

    @classmethod
    def from_exception(cls, request_id: int, error: BaseException) -> ErrorReply:
        """Wrap an exception for the wire (non-repro errors degrade to base)."""
        return cls(
            request_id=request_id,
            error_type=type(error).__name__,
            message=str(error),
        )

    def exception(self) -> Exception:
        """A raisable exception mirroring the shard-side failure.

        Known :mod:`repro.errors` classes are rebuilt as themselves; anything
        else (a shard-side ``TypeError``, say) surfaces as a
        :class:`~repro.errors.ServingError` carrying the original class name.
        """
        error_class = getattr(errors, self.error_type, None)
        if isinstance(error_class, type) and issubclass(error_class, errors.ReproError):
            return error_class(self.message)
        return errors.ServingError(f"shard error ({self.error_type}): {self.message}")


@dataclass(frozen=True)
class StatsCall:
    """Ask a shard for its :class:`ShardStats`.

    ``drain_spans`` additionally asks the shard to drain its tracer's span
    buffer into the reply (``StatsReply.spans``) so the supervisor can merge
    cluster-wide traces.
    """

    request_id: int
    drain_spans: bool = False


@dataclass(frozen=True)
class ShardStats(MetricsSnapshot):
    """One shard's identity plus its metrics registry samples.

    ``samples`` is the shard server's
    :meth:`~repro.obs.registry.Registry.samples` — the one wire form every
    stats surface shares — so the supervisor's rollup is a
    :func:`~repro.obs.registry.merge` and every counter view
    (``requests``, ``warm_serves``, ...) reads the same series.
    """

    shard_id: int = 0
    pid: int = 0


@dataclass(frozen=True)
class StatsReply:
    """A shard's stats, correlated by ``request_id``.

    ``spans`` carries drained trace spans in their wire-dict form
    (:meth:`repro.obs.trace.Span.to_wire`) when the call asked for them —
    the protocol layer stays decoupled from :mod:`repro.obs` by never
    interpreting them.  Empty for plain stats calls.
    """

    request_id: int
    stats: ShardStats
    spans: tuple = ()


@dataclass(frozen=True)
class PingCall:
    """Liveness probe."""

    request_id: int


@dataclass(frozen=True)
class PongReply:
    """Liveness acknowledgement (the shard id doubles as a sanity check)."""

    request_id: int
    shard_id: int
    pid: int


@dataclass(frozen=True)
class HelloCall:
    """The supervisor's first frame on a fresh TCP connection.

    Pins the protocol version explicitly (belt and braces over the
    envelope gate: a version mismatch must fail *before* any payload is
    trusted) and assigns the shard the ring id it answers as for this
    session.
    """

    request_id: int
    protocol_version: int
    shard_id: int


@dataclass(frozen=True)
class HelloReply:
    """The shard's acceptance: its identity and protocol version."""

    request_id: int
    shard_id: int
    pid: int
    protocol_version: int


#: Control actions a :class:`ControlCall` may carry.
CONTROL_WARMUP = "warmup"
CONTROL_INVALIDATE = "invalidate"
_CONTROL_ACTIONS = (CONTROL_WARMUP, CONTROL_INVALIDATE)


@dataclass(frozen=True)
class ControlCall:
    """A cluster-control action for one shard: warmup or invalidation.

    The supervisor broadcasts these so operators can pre-warm or
    invalidate a *running* cluster in place (the ROADMAP's control-plane
    item) instead of restarting every shard.  ``tenant`` scopes the action
    to one tenant's namespace; ``None`` means every namespace.
    ``refresh`` (invalidation only) re-tunes and re-serves the dropped
    families before replying.  A pre-control peer answers the unknown
    message type with an :class:`ErrorReply` — the supervisor reports
    that shard as unsupported rather than failing the whole broadcast.
    """

    request_id: int
    action: str
    tenant: str | None = None
    target: str = "python_exec"
    refresh: bool = False


@dataclass(frozen=True)
class ControlReply:
    """One shard's outcome of a :class:`ControlCall`.

    ``report`` is the action's JSON-ready summary dict (the wire form of a
    :class:`~repro.serve.warmup.WarmupReport` /
    :class:`~repro.serve.invalidate.InvalidationReport` — the protocol
    layer never interprets it, mirroring how trace spans travel).
    """

    request_id: int
    report: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class ShutdownCall:
    """Ask the shard to drain in-flight work and exit; no reply follows."""

    request_id: int


# -- envelope encode/decode --------------------------------------------------


def _stats_to_payload(message: StatsReply) -> dict:
    payload = {
        "request_id": message.request_id,
        "stats": dataclasses.asdict(message.stats),
    }
    if message.spans:
        payload["spans"] = [dict(span) for span in message.spans]
    return payload


def _stats_from_payload(payload: dict) -> StatsReply:
    stats = payload.get("stats") if isinstance(payload, dict) else None
    if (
        not isinstance(stats, dict)
        or not _is_int(stats.get("shard_id"))
        or not _is_int(stats.get("pid"))
    ):
        raise ProtocolError(f"malformed stats payload: {payload!r}")
    try:
        samples = check_samples(stats.get("samples"))
        for _, _, labels, _ in samples:
            if "tenant" in labels:
                validate_tenant(labels["tenant"])
    except ValueError as error:
        raise ProtocolError(f"malformed stats samples: {error}") from None
    return StatsReply(
        request_id=_request_id(payload),
        stats=ShardStats(
            samples=tuple(samples), shard_id=stats["shard_id"], pid=stats["pid"]
        ),
        spans=_decode_spans(payload.get("spans")),
    )


def _decode_spans(value) -> tuple:
    """Tolerantly decode drained span dicts (absent / malformed ⇒ dropped).

    Spans are diagnostic freight: a peer speaking a newer span schema must
    not be able to break the stats path, so anything non-dict is discarded
    rather than rejected.
    """
    if not isinstance(value, (list, tuple)):
        return ()
    return tuple(span for span in value if isinstance(span, dict))


def _decode_trace_field(value) -> dict | None:
    """The envelope's additive ``trace`` field: a small dict or nothing."""
    return value if isinstance(value, dict) else None


def _decode_deadline_field(value) -> float | None:
    """The envelope's additive ``deadline_ms`` field: a positive number.

    Tolerant like the trace field — diagnostic-adjacent freight from a
    newer peer must degrade to "no deadline", never break the serve path.
    """
    if (_is_int(value) or isinstance(value, float)) and value > 0:
        return float(value)
    return None


def _decode_tenant_field(value) -> str:
    """The envelope's additive ``tenant`` field: a validated id or default.

    Absent (``None``) means :data:`~repro.tenancy.DEFAULT_TENANT`.  A
    *present* value is validated
    **strictly**: unlike the tolerant trace/deadline fields, a corrupt
    tenant id cannot degrade to default, because it would silently reroute
    one tenant's traffic (and tuning writes) into another's namespace.
    """
    if value is None:
        return DEFAULT_TENANT
    if not isinstance(value, str):
        raise ProtocolError(f"tenant field must be a string, got {value!r}")
    try:
        return validate_tenant(value)
    except ValueError as error:
        raise ProtocolError(f"invalid tenant id on the wire: {error}") from None


def _decode_control(payload: dict) -> ControlCall:
    """Strictly decode a control call (its fields name state to mutate)."""
    action = payload.get("action")
    if action not in _CONTROL_ACTIONS:
        raise ProtocolError(
            f"unknown control action {action!r} (known: {_CONTROL_ACTIONS})"
        )
    tenant = payload.get("tenant")
    if tenant is not None:
        tenant = _decode_tenant_field(tenant)
    target = payload.get("target", "python_exec")
    if not isinstance(target, str) or not target:
        raise ProtocolError(f"control target must be a non-empty string, got {target!r}")
    return ControlCall(
        request_id=_request_id(payload),
        action=action,
        tenant=tenant,
        target=target,
        refresh=bool(payload.get("refresh", False)),
    )


def _validate_hello(message):
    """Shared field validation for both handshake directions."""
    for name in ("protocol_version", "shard_id"):
        if not _is_int(getattr(message, name)):
            raise ProtocolError(f"handshake field {name!r} must be an integer")
    return message


def _request_id(payload: dict) -> int:
    value = payload.get("request_id")
    if not _is_int(value):
        raise ProtocolError(f"message carries no integer request_id: {payload!r}")
    return value


#: type tag -> (message class, payload encoder, payload decoder).
#: Encoders take ``(message, frames)`` — ``frames`` is the list to append
#: out-of-band byte frames to.  Decoders take ``(payload, trusted, frames)``
#: symmetrically.
_MESSAGE_TYPES = {
    "serve": (
        ServeCall,
        lambda m, frames: {
            "request_id": m.request_id,
            "request": _encode_request(m.request),
            **({"trace": m.trace} if m.trace is not None else {}),
            **(
                {"deadline_ms": m.deadline_ms}
                if m.deadline_ms is not None
                else {}
            ),
            **(
                {"tenant": m.tenant}
                if m.tenant != DEFAULT_TENANT
                else {}
            ),
        },
        lambda p, trusted, frames: ServeCall(
            request_id=_request_id(p),
            request=_decode_request(p.get("request")),
            trace=_decode_trace_field(p.get("trace")),
            deadline_ms=_decode_deadline_field(p.get("deadline_ms")),
            tenant=_decode_tenant_field(p.get("tenant")),
        ),
    ),
    "result": (
        ServeReply,
        lambda m, frames: {
            "request_id": m.request_id,
            "result": _encode_result(m.result, frames),
        },
        lambda p, trusted, frames: ServeReply(
            request_id=_request_id(p),
            result=_decode_result(p.get("result"), trusted=trusted, frames=frames),
        ),
    ),
    "error": (
        ErrorReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: _rebuild(ErrorReply, p, "error reply"),
    ),
    "stats": (
        StatsCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: StatsCall(
            request_id=_request_id(p),
            drain_spans=bool(p.get("drain_spans", False)),
        ),
    ),
    "stats-result": (
        StatsReply,
        lambda m, frames: _stats_to_payload(m),
        lambda p, trusted, frames: _stats_from_payload(p),
    ),
    "ping": (
        PingCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: PingCall(request_id=_request_id(p)),
    ),
    "pong": (
        PongReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: _rebuild(PongReply, p, "pong reply"),
    ),
    "hello": (
        HelloCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: _validate_hello(_rebuild(HelloCall, p, "hello")),
    ),
    "hello-reply": (
        HelloReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: _validate_hello(_rebuild(HelloReply, p, "hello reply")),
    ),
    "control": (
        ControlCall,
        lambda m, frames: {
            "request_id": m.request_id,
            "action": m.action,
            "target": m.target,
            "refresh": m.refresh,
            **({"tenant": m.tenant} if m.tenant is not None else {}),
        },
        lambda p, trusted, frames: _decode_control(p),
    ),
    "control-reply": (
        ControlReply,
        lambda m, frames: {
            "request_id": m.request_id,
            "report": dict(m.report),
        },
        lambda p, trusted, frames: ControlReply(
            request_id=_request_id(p),
            report=(
                dict(p["report"]) if isinstance(p.get("report"), dict) else {}
            ),
        ),
    ),
    "shutdown": (
        ShutdownCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, trusted, frames: ShutdownCall(request_id=_request_id(p)),
    ),
}

_TYPE_OF_CLASS = {cls: tag for tag, (cls, _, _) in _MESSAGE_TYPES.items()}

#: Every message dataclass the protocol understands.
Message = (
    ServeCall
    | ServeReply
    | ErrorReply
    | StatsCall
    | StatsReply
    | PingCall
    | PongReply
    | HelloCall
    | HelloReply
    | ControlCall
    | ControlReply
    | ShutdownCall
)


def encode_message(message: Message, version: int = PROTOCOL_VERSION) -> bytes:
    """One message as container bytes: magic, length-prefixed JSON
    envelope, then the message's out-of-band payload frames, each
    length-prefixed and declared in the envelope's ``"frames"`` list.

    ``version`` must be :data:`PROTOCOL_VERSION`; any other value raises
    :class:`~repro.errors.ProtocolError`.
    """
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"cannot encode protocol version {version!r}")
    tag = _TYPE_OF_CLASS.get(type(message))
    if tag is None:
        raise ProtocolError(f"cannot encode message of type {type(message).__name__}")
    _, encode, _ = _MESSAGE_TYPES[tag]
    frames: list[bytes] = []
    payload = encode(message, frames)
    envelope = {
        _ENVELOPE_KEY: PROTOCOL_VERSION,
        "type": tag,
        "payload": payload,
        "frames": [len(frame) for frame in frames],
    }
    head = json.dumps(envelope, sort_keys=True).encode("utf-8")
    parts = [FRAME_MAGIC, len(head).to_bytes(4, "big"), head]
    for frame in frames:
        parts.append(len(frame).to_bytes(4, "big"))
        parts.append(frame)
    return b"".join(parts)


def decode_message(
    data: bytes, trusted: bool = False, allow_pickled: bool = False
) -> Message:
    """Rebuild a message from its container bytes.

    Every structural violation — bytes without the container magic, a
    truncated envelope, a foreign envelope or an unknown version, a payload
    frame whose length prefix disagrees with the envelope's declaration, a
    truncated or over-long final frame, trailing garbage, an unknown
    message type — raises :class:`~repro.errors.ProtocolError`.  Frames are
    handed to payload decoders as memoryview slices, so no byte of an
    artifact body is copied until its consumer asks for it.  ``trusted``
    is forwarded to :func:`decode_artifact` for result messages.
    """
    # allow_pickled: an alias of trusted, kept for perfbench/mbench/serve_warm.py.
    trusted = trusted or allow_pickled
    view = memoryview(data)
    offset = len(FRAME_MAGIC)
    if bytes(view[:offset]) != FRAME_MAGIC:
        raise ProtocolError("undecodable wire message: not a moma-serve container")
    if len(view) < offset + 4:
        raise ProtocolError("truncated message: missing envelope length")
    head_length = int.from_bytes(view[offset : offset + 4], "big")
    offset += 4
    if head_length == 0 or head_length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible envelope length {head_length}")
    if len(view) < offset + head_length:
        raise ProtocolError("truncated message: envelope shorter than declared")
    try:
        envelope = json.loads(str(view[offset : offset + head_length], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable envelope: {error}") from None
    offset += head_length
    if not isinstance(envelope, dict) or _ENVELOPE_KEY not in envelope:
        raise ProtocolError("wire message is not a moma-serve envelope")
    version = envelope[_ENVELOPE_KEY]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this build speaks "
            f"{PROTOCOL_VERSION})"
        )
    declared = envelope.get("frames", [])
    if not isinstance(declared, list) or not all(
        _is_int(length) and 0 <= length <= MAX_FRAME_BYTES for length in declared
    ):
        raise ProtocolError(f"malformed frame table: {declared!r}")
    frames = []
    for index, length in enumerate(declared):
        if len(view) < offset + 4:
            raise ProtocolError(f"truncated message: missing frame {index} length")
        prefixed = int.from_bytes(view[offset : offset + 4], "big")
        offset += 4
        if prefixed != length:
            raise ProtocolError(
                f"frame {index} length mismatch: envelope declares {length}, "
                f"frame prefix says {prefixed}"
            )
        if len(view) < offset + length:
            raise ProtocolError(f"truncated message: frame {index} shorter than declared")
        frames.append(view[offset : offset + length])
        offset += length
    if offset != len(view):
        raise ProtocolError(
            f"message carries {len(view) - offset} trailing bytes after its frames"
        )
    tag = envelope.get("type")
    if tag not in _MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {tag!r}")
    _, _, decode = _MESSAGE_TYPES[tag]
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise ProtocolError(f"message {tag!r} carries no payload object")
    _request_id(payload)  # every message type carries one
    return decode(payload, trusted, tuple(frames))


# -- stream framing ----------------------------------------------------------


def _read_exact(stream, count: int) -> bytes:
    """Up to ``count`` bytes, looping over short reads; shorter only at EOF.

    A raw or socket-backed stream may legally return fewer bytes per call —
    a single ``stream.read(n)`` is **not** a protocol-safe read.
    """
    data = bytearray()
    while len(data) < count:
        chunk = stream.read(count - len(data))
        if not chunk:  # b"" (EOF) or None (a non-blocking stream ran dry)
            break
        data.extend(chunk)
    return bytes(data)


def read_frame(stream: io.BufferedIOBase) -> bytes | None:
    """Read one length-prefixed frame's body; ``None`` on clean EOF.

    A short read inside a frame (the peer died mid-write) and an impossible
    length prefix both raise :class:`~repro.errors.ProtocolError`.  The
    length gate runs *before* any body allocation, so a corrupt prefix can
    never trigger a giant allocation.
    """
    prefix = _read_exact(stream, 4)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise ProtocolError("truncated frame: short length prefix")
    length = int.from_bytes(prefix, "big")
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {length}")
    data = _read_exact(stream, length)
    if len(data) < length:
        raise ProtocolError(
            f"truncated frame: expected {length} bytes, got {len(data)}"
        )
    return data


class StreamConnection:
    """A framed socket: the one transport between supervisor and shards.

    Wraps one connected socket — a ``socket.socketpair()`` end for a
    spawned local shard, a TCP connection for a remote one — in the
    ``send_bytes`` / ``send_many`` / ``recv_bytes`` / ``close`` surface the
    shard loop and the supervisor's readers speak, so both kinds of shard
    share every line of serving code.  Each frame is a 4-byte big-endian
    length prefix plus one encoded message; ``recv_bytes`` raises
    ``EOFError`` on a clean close and :class:`~repro.errors.ProtocolError`
    on a torn, empty or over-:data:`MAX_FRAME_BYTES` frame.

    ``send_bytes`` and ``recv_bytes`` are each single-caller (one sender
    thread holding the caller's send lock, one reader thread).
    """

    def __init__(self, sock) -> None:
        self._socket = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX / socketpair transports have no Nagle to disable
        self._reader = sock.makefile("rb")
        self._writer = sock.makefile("wb")

    def settimeout(self, timeout: float | None) -> None:
        """Bound blocking reads/writes (used to fence the handshake)."""
        self._socket.settimeout(timeout)

    def send_bytes(self, data: bytes) -> None:
        """Write ``data`` as one frame; ``OSError``/``ValueError`` if closed."""
        self._writer.write(len(data).to_bytes(4, "big") + data)
        self._writer.flush()

    def send_many(self, payloads) -> None:
        """Write every payload as its own frame in one buffered flush.

        The coalescing fast path: many pending messages become one
        ``write``/``flush`` pair (one syscall burst, one TCP segment train)
        instead of one flush per message.  The receiver still sees ordinary
        individual frames — this changes only the write-side batching.
        """
        chunks = []
        for data in payloads:
            chunks.append(len(data).to_bytes(4, "big"))
            chunks.append(data)
        if not chunks:
            return
        self._writer.write(b"".join(chunks))
        self._writer.flush()

    def recv_bytes(self) -> bytes:
        """One frame's body; ``EOFError`` on clean close."""
        frame = read_frame(self._reader)
        if frame is None:
            raise EOFError("stream connection closed by peer")
        return frame

    def close(self) -> None:
        """Close both directions, unblocking any thread mid-``recv_bytes``."""
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for closeable in (self._reader, self._writer, self._socket):
            try:
                closeable.close()
            except OSError:
                pass
