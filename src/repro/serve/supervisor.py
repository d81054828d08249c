"""The shard supervisor: spawn, route, monitor, restart, aggregate.

A :class:`ShardSupervisor` turns N :class:`~repro.serve.KernelServer`
processes into one serving surface with the same front door as a single
server (``submit()`` returning a future, blocking ``serve()``, and a
``devices`` attribute — so :class:`~repro.serve.client.ServedNTT` and
:class:`~repro.serve.client.ServedBlasEngine` work against a supervisor
unchanged):

* **Spawning** — each local shard is a real OS process running
  :func:`~repro.serve.shard.run_shard` over one end of a
  ``socket.socketpair()``, framed by the same
  :class:`~repro.serve.protocol.StreamConnection` as a TCP session, and
  owning its device subset and its own tuning-database *replica* file
  (:func:`~repro.tune.reconcile.replica_path`), so shards share nothing at
  runtime.
* **Remote shards** — ``connect=("host:port", ...)`` adds shards served by
  :func:`~repro.serve.shard.serve_shard_tcp` listeners (other machines, or
  just other processes) to the same ring.  Each connection starts with a
  handshake that pins the protocol version.  Kernels from remote shards
  arrive as source text unless the supervisor is built with
  ``execute_remote=True``; kernels from spawned shards are always rebuilt
  executable.  Remote shards are *connected to*, never spawned: liveness
  is a ping deadline instead of process aliveness, a disconnect removes
  the shard from the ring (its keys rebalance to ring successors) and
  re-routes its pending work, and the monitor re-dials with the same
  backoff schedule a local respawn uses, re-adding the shard to the ring
  on success.
* **Routing** — a :class:`~repro.serve.shard.ShardRouter` consistent-hashes
  each request's (kernel-family fingerprint, device) onto a shard; all
  traffic for one family lands on one shard and enjoys its resident table
  and in-flight dedup.
* **The fast wire** — each shard connection is a :class:`_Link` whose
  sender thread coalesces every call queued since its last flush into one
  write (out-of-order replies already correlate by ``request_id``, so
  batching the write path changes no semantics).  Remote shards get a
  small keep-alive connection *pool* each; wire-path costs
  (encode/decode/route/flush time, bytes, messages-per-flush) are profiled
  into :attr:`ClusterStats.wire`.
* **Monitoring & restart** — a monitor thread watches shard liveness; a
  dead shard's pending requests are re-routed to its ring successors
  (rebalance-on-shard-loss) and the shard is respawned over the same
  replica file, re-joining the ring once alive.  Respawns follow
  :func:`_restart_backoff`: the first attempt is immediate, later ones
  back off exponentially.
* **Aggregation** — :meth:`ShardSupervisor.stats` asks every live shard for
  its metrics registry samples over the wire and merges them with the
  supervisor's own series (:func:`~repro.obs.registry.merge`) into one
  :class:`ClusterStats`: global warm/cold/dedup counts, p50/p95 from the
  *summed* histograms, and the per-shard rows.
* **Reconciliation** — :meth:`ShardSupervisor.reconcile` (also run at
  :meth:`close`) folds every replica back into the primary database with
  :func:`~repro.tune.reconcile.reconcile_replicas`, so winners tuned by any
  shard survive into the next deployment's warmup.
"""

from __future__ import annotations

import functools
import itertools
import logging
import multiprocessing
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ProtocolError, ServingError
from repro.obs import trace as tracing
from repro.obs.registry import COUNTER, GAUGE, Registry, merge
from repro.tenancy import DEFAULT_TENANT, TenantRegistry, validate_tenant
from repro.tune.reconcile import (
    ReconcileReport,
    prune_quarantine,
    reconcile_replicas,
    replica_path,
)

# Imported as a module (not a package attribute) so this file is loadable at
# any point of repro.serve's own package initialization.
import repro.serve.protocol as protocol
from repro.serve.metrics import HELP, MetricsSnapshot, WireSnapshot
from repro.serve.server import ServeRequest, ServeResult
from repro.serve.shard import ShardRouter, run_shard

__all__ = ["ClusterStats", "ShardSupervisor"]

_LOG = logging.getLogger("repro.serve.supervisor")

#: How often the monitor thread checks shard liveness.
_MONITOR_INTERVAL_S = 0.2

#: How long close() waits for a shard to drain before terminating it.
_SHUTDOWN_GRACE_S = 30.0

#: Restart backoff bounds: the first respawn is immediate; a shard that
#: keeps dying (a crash at startup, say) is respawned at an exponentially
#: decaying rate capped here, never in a tight loop.
_RESTART_BACKOFF_MAX_S = 30.0

#: How often the monitor pings a connected remote shard...
_PING_INTERVAL_S = 2.0

#: ...and how stale its last pong may get before the connection is declared
#: dead (the socket may still look open — a remote power loss leaves no
#: FIN — so liveness must come from the ping deadline, not the file
#: descriptor).
_PING_TIMEOUT_S = 10.0

#: How long one TCP connect + handshake attempt to a remote shard may take.
_CONNECT_ATTEMPT_TIMEOUT_S = 5.0


def _restart_backoff(attempt: int) -> float:
    """Seconds to wait before restart ``attempt`` (1-based).

    Attempt 1 is **immediate** — one crash must not stall traffic — and
    later attempts back off exponentially from 0.5 s to
    :data:`_RESTART_BACKOFF_MAX_S`: 0.0, 0.5, 1.0, 2.0, 4.0, ... 30.0.
    """
    if attempt <= 1:
        return 0.0
    return min(_RESTART_BACKOFF_MAX_S, 0.5 * (2 ** min(attempt - 2, 8)))


def _resolve(future: Future, result=None, error: BaseException | None = None) -> None:
    """Resolve a future, tolerating a caller who already cancelled it."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # the caller cancelled; the outcome has nowhere to go


def _spawn_context():
    # Shards are spawned fresh (no inherited locks/threads): "spawn" is the
    # only start method that is safe once the supervisor's reader threads
    # exist (restarts happen with threads running) and the only one macOS
    # and Windows offer at all.
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class ClusterStats(MetricsSnapshot):
    """The merge of every live shard's samples with the supervisor's series.

    Every counter view (``requests``, ``warm_serves``, ...) and percentile
    reads the merged samples, so it is the sum over shards; the
    percentiles come from the summed fixed-bucket histograms
    (bounded-error approximations — see
    :func:`~repro.obs.registry.percentile_from_histogram`).  The
    supervisor adds its wire-path series (:attr:`wire`) and its admission
    series (``in_flight`` and ``quota_rejections_total`` per tenant, in
    :attr:`tenants`).  ``shards`` holds each live shard's own
    :class:`~repro.serve.protocol.ShardStats`.
    """

    shards: tuple[protocol.ShardStats, ...] = ()

    @property
    def wire(self) -> WireSnapshot:
        """The supervisor-side wire-path profile."""
        return WireSnapshot.from_samples(self.samples)

    def exposition(self) -> list[list]:
        """The cluster's ``/metrics`` samples, plus the per-shard breakdown."""
        return super().exposition() + [
            [GAUGE, "shards", {}, len(self.shards)],
            *(
                [COUNTER, "shard_requests_total", {"shard": str(shard.shard_id)}, shard.requests]
                for shard in self.shards
            ),
        ]

    def _headline(self) -> str:
        return f"cluster       {len(self.shards)} shards, {self.requests} requests "

    def report(self) -> str:
        """The server report plus the wire profile and per-shard rows."""
        lines = [super().report(), self.wire.report()]
        for stats in self.shards:
            lines.append(
                f"  shard {stats.shard_id} (pid {stats.pid}): "
                f"{stats.requests} requests, warm {stats.warm_serves}, "
                f"cold {stats.cold_serves}, dedup {stats.dedup_hits}, "
                f"{stats.resident_kernels} resident"
            )
        return "\n".join(lines)


class _Link:
    """One transport connection to a shard, with its coalescing outbox.

    Every link owns a sender thread (draining :attr:`outbox` in whole
    batches — the writev-style single flush) and a reader thread; direct
    control-plane sends (pings, probes, shutdown) take :attr:`send_lock`,
    the same lock the sender holds per flush, so a connection only ever
    sees whole frames.
    """

    def __init__(self, connection) -> None:
        self.connection = connection
        self.send_lock = threading.Lock()
        self.outbox: deque[bytes] = deque()
        self.wakeup = threading.Condition()
        self.closed = False
        self.sender: threading.Thread | None = None
        self.reader: threading.Thread | None = None

    def enqueue(self, data: bytes) -> None:
        """Queue one encoded frame for the sender thread's next flush."""
        with self.wakeup:
            if self.closed:
                raise OSError("shard link is closed")
            self.outbox.append(data)
            self.wakeup.notify()

    def close(self) -> None:
        """Close the connection and release the sender thread."""
        with self.wakeup:
            self.closed = True
            self.wakeup.notify_all()
        try:
            self.connection.close()
        except OSError:
            pass


class _ShardHandle:
    """One local shard process: its socketpair link, pending futures, reader."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process = None
        self.links: list[_Link] = []
        # request_id -> (tenant, request, future, trace handle, deadline_ms);
        # tenant and request are None for control-plane probes, the trace
        # handle None when untraced, the deadline None when the caller set
        # no budget.
        self.pending: dict[
            int,
            tuple[
                str | None,
                ServeRequest | None,
                Future,
                tracing.TraceHandle | None,
                float | None,
            ],
        ] = {}
        self.pending_lock = threading.Lock()
        self.restarts = 0
        self.next_restart_at = 0.0  # monotonic; 0.0 = respawn immediately
        self.trusted = True  # a socketpair connects a process we spawned
        self._round_robin = 0
        self._no_link_lock = threading.Lock()

    @property
    def connection(self):
        """The primary link's transport (kept for probes and tests)."""
        links = self.links
        return links[0].connection if links else None

    @property
    def send_lock(self) -> threading.Lock:
        """The primary link's write lock (control-plane direct sends)."""
        links = self.links
        return links[0].send_lock if links else self._no_link_lock

    def enqueue(self, data: bytes) -> None:
        """Queue a frame on the next pool link, round-robin."""
        links = self.links
        if not links:
            raise OSError("shard connection is down")
        self._round_robin = (self._round_robin + 1) % len(links)
        links[self._round_robin].enqueue(data)

    def drop_links(self) -> None:
        """Close every link (idempotent); senders and readers unblock."""
        links, self.links = self.links, []
        for link in links:
            link.close()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def take_pending(self) -> dict:
        with self.pending_lock:
            taken, self.pending = self.pending, {}
            return taken


class _RemoteShardHandle(_ShardHandle):
    """One remote TCP shard: its address, connections, and ping deadline.

    Remote shards are never spawned or restarted — the supervisor only
    holds a connection to a :func:`~repro.serve.shard.serve_shard_tcp`
    listener it was pointed at.  ``alive()`` is therefore *connection*
    liveness (the reader thread still draining frames); staleness beyond
    the ping deadline is enforced by the monitor, which poisons the
    connection so the reader exits and recovery runs.
    """

    def __init__(
        self,
        shard_id: int,
        address: tuple[str, int],
        trusted: bool,
    ) -> None:
        super().__init__(shard_id)
        self.address = address
        self.trusted = trusted
        self.reader_done = True  # not yet connected
        self.last_pong = 0.0
        self.last_ping_sent = 0.0

    def alive(self) -> bool:
        return self.connection is not None and not self.reader_done


def _parse_address(address) -> tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) as a connectable tuple."""
    if isinstance(address, tuple) and len(address) == 2:
        host, port = address
    else:
        host, _, port = str(address).rpartition(":")
        if not host:
            raise ServingError(
                f"remote shard address {address!r} is not host:port"
            )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ServingError(
            f"remote shard address {address!r} has a non-numeric port"
        ) from None
    if not 0 < port < 65536:
        raise ServingError(f"remote shard address {address!r} port out of range")
    return str(host), port


class ShardSupervisor:
    """N kernel-server shard processes behind one routed front door.

    Args:
        shards: local shard process count (≥ 1, or 0 when ``connect`` names
            at least one remote shard).
        db: primary tuning-database file; each local shard gets its own
            replica next to it (``None``: per-shard in-memory databases,
            nothing to reconcile).  Remote shards keep their databases on
            their own machines — reconciliation never assumes shared disk.
        devices: the devices the cluster serves.  Every shard serves all
            of them (a kernel configuration is per-device state, not a
            hardware handle); a request for any other device is refused
            with :class:`~repro.errors.ServingError` before it is routed.
        workers: worker threads per local shard.
        restart: respawn dead local shards and re-dial dead remote shards
            (on by default).
        connect: remote shard addresses (``"host:port"`` strings or
            ``(host, port)`` pairs), each a
            :func:`~repro.serve.shard.serve_shard_tcp` listener.  Remote
            ring ids continue after the local ones.
        execute_remote: rebuild executable kernels from remote shards'
            replies, which runs their source in this process.  Off by
            default: ``python_exec`` artifacts from remote shards arrive as
            source text.  Spawned shards' kernels are always executable.
        connect_timeout: how long to keep re-trying the initial connection
            to each remote shard before failing construction (listeners are
            often still starting when the supervisor comes up).
        pool: keep-alive connections per remote shard.  Dials beyond the
            first connection are best-effort — a shard that grants fewer
            connections still serves over the ones it granted.
        tracer: the :class:`~repro.obs.trace.Tracer` sampling and retaining
            this supervisor's request traces.  Sampled requests carry their
            trace context to shards in the envelope's additive ``trace``
            field; :meth:`drain_spans` merges the shard-side spans back.
            Defaults to a never-sampling tracer (tracing off).
        tenants: :class:`~repro.tenancy.TenantConfig` entries seeding the
            supervisor's :class:`~repro.tenancy.TenantRegistry` — per-tenant
            display names and admission quotas enforced at :meth:`submit`.
            An empty registry (the default) admits everything, which is the
            exact pre-tenancy behaviour; configs can also be registered
            later via ``supervisor.tenants.register(...)``.

    Shards are started with the ``spawn`` start method, so the standard
    :mod:`multiprocessing` caveat applies: construct supervisors from an
    importable ``__main__`` (a script with an ``if __name__ == "__main__"``
    guard, a module run with ``-m``, pytest, ...), not from a piped-stdin
    script — spawn re-imports the main module in every shard process.
    """

    def __init__(
        self,
        shards: int = 2,
        db: str | Path | None = None,
        devices: tuple[str, ...] = ("rtx4090",),
        workers: int = 4,
        restart: bool = True,
        connect: tuple = (),
        execute_remote: bool = False,
        connect_timeout: float = 10.0,
        pool: int = 2,
        tracer: tracing.Tracer | None = None,
        tenants: tuple = (),
    ) -> None:
        addresses = tuple(_parse_address(address) for address in connect)
        if shards < 1 and not addresses:
            raise ServingError(f"shard count must be positive, got {shards}")
        if shards < 0:
            raise ServingError(f"shard count must be non-negative, got {shards}")
        if not devices:
            raise ServingError("a shard supervisor needs at least one device")
        if pool < 1:
            raise ServingError(f"connection pool size must be positive, got {pool}")
        self.devices = tuple(devices)
        self.db_path = Path(db) if db is not None else None
        self.workers = workers
        self.restart = restart
        self._pool = pool
        self.tracer = tracer if tracer is not None else tracing.Tracer(sample_rate=0.0)
        self.tenants = TenantRegistry(tenants)
        # The supervisor's own series, the wire profile (``wire_*``),
        # merged into every stats() with the admission state.
        self.metrics = Registry()
        for name in HELP:
            if name.startswith("wire_"):
                self.metrics.declare(COUNTER, name)
        self._context = _spawn_context()
        self._closed = False
        self._lock = threading.RLock()
        self._request_ids = itertools.count(1)
        self._routed: dict[int, int] = {}  # shard_id -> requests routed there
        self._handles: dict[int, _ShardHandle] = {
            shard_id: _ShardHandle(shard_id) for shard_id in range(shards)
        }
        # Remote ring ids continue after the local ones.
        for offset, address in enumerate(addresses):
            shard_id = shards + offset
            self._handles[shard_id] = _RemoteShardHandle(
                shard_id, address, trusted=execute_remote
            )
        self.router = ShardRouter(self._handles)
        try:
            for handle in self._handles.values():
                if isinstance(handle, _RemoteShardHandle):
                    self._connect_remote_until(handle, timeout=connect_timeout)
                else:
                    self._start_shard(handle)
        except BaseException:
            self._closed = True
            for handle in self._handles.values():
                if handle.process is not None:
                    handle.process.terminate()
                handle.drop_links()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    # -- spawning -----------------------------------------------------------

    def shard_replica_path(self, shard_id: int) -> Path | None:
        """The tuning-db replica file a shard owns (``None`` when in-memory)."""
        if self.db_path is None:
            return None
        return replica_path(self.db_path, shard_id)

    def _start_shard(self, handle: _ShardHandle) -> None:
        parent, child = socket.socketpair()
        process = self._context.Process(
            target=run_shard,
            args=(child, handle.shard_id, self.devices),
            kwargs={
                "db_path": self.shard_replica_path(handle.shard_id),
                "workers": self.workers,
            },
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        child.close()
        handle.process = process
        self._attach_link(handle, protocol.StreamConnection(parent))

    def _attach_link(self, handle: _ShardHandle, connection) -> _Link:
        """Wrap a connected transport in a link with sender/reader threads."""
        link = _Link(connection)
        handle.links.append(link)
        link.sender = threading.Thread(
            target=self._send_loop,
            args=(link,),
            name=f"repro-shard-{handle.shard_id}-sender",
            daemon=True,
        )
        link.reader = threading.Thread(
            target=self._read_loop,
            args=(handle, link),
            name=f"repro-shard-{handle.shard_id}-reader",
            daemon=True,
        )
        link.sender.start()
        link.reader.start()
        return link

    def _send_loop(self, link: _Link) -> None:
        """Drain a link's outbox in whole batches — the coalescing flush.

        Every wakeup takes *everything* queued since the last flush and
        writes it in one buffered ``send_many`` flush — one syscall burst
        per batch — so N pending calls cost one flush instead of N.  A
        write failure poisons
        the connection; the reader sees EOF and the monitor re-routes the
        pending work, exactly as for a send failure on the old direct path.
        """
        connection = link.connection
        while True:
            with link.wakeup:
                while not link.outbox and not link.closed:
                    link.wakeup.wait()
                if not link.outbox and link.closed:
                    return
                batch = list(link.outbox)
                link.outbox.clear()
            started = time.perf_counter()
            try:
                with link.send_lock:
                    connection.send_many(batch)
            except (OSError, ValueError):
                self._poison(connection)
                return
            self.metrics.inc("wire_flushes_total")
            self.metrics.inc("wire_flush_seconds_total", time.perf_counter() - started)

    def _send_now(self, connection, message) -> None:
        """Encode ``message`` and write it straight to ``connection``.

        The control-plane path (hello, pings, probes, shutdown): one message
        in one flush, counted in the same ``wire_*`` series as the
        coalesced serve path.  Callers that share the connection hold its
        send lock.
        """
        started = time.perf_counter()
        data = protocol.encode_message(message)
        encoded = time.perf_counter()
        connection.send_bytes(data)
        metrics = self.metrics
        metrics.inc("wire_messages_sent_total")
        metrics.inc("wire_bytes_sent_total", len(data))
        metrics.inc("wire_encode_seconds_total", encoded - started)
        metrics.inc("wire_flushes_total")
        metrics.inc("wire_flush_seconds_total", time.perf_counter() - encoded)

    def _count_received(self, data: bytes, decode_s: float) -> None:
        metrics = self.metrics
        metrics.inc("wire_messages_received_total")
        metrics.inc("wire_bytes_received_total", len(data))
        metrics.inc("wire_decode_seconds_total", decode_s)

    # -- remote connections -------------------------------------------------

    def _connect_remote_until(
        self, handle: _RemoteShardHandle, timeout: float
    ) -> None:
        """Dial a remote shard, retrying until ``timeout`` (startup races).

        Only connection-level failures (``OSError``: refused, timed out, a
        listener busy with another supervisor) are worth retrying; a
        *completed but refused* handshake — a protocol version skew, a
        malformed reply — is deterministic and fails construction
        immediately instead of burning the whole timeout on it.
        """
        deadline = time.monotonic() + timeout
        host, port = handle.address
        while True:
            try:
                self._connect_remote(handle)
                return
            except ServingError as error:
                raise ServingError(
                    f"remote shard {handle.shard_id} at {host}:{port} "
                    f"refused: {error}"
                ) from error
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ServingError(
                        f"cannot reach remote shard {handle.shard_id} at "
                        f"{host}:{port}: {error}"
                    ) from error
                time.sleep(0.2)

    def _handshake_remote(self, handle: _RemoteShardHandle):
        """One connect + hello exchange; the connection, or raises.

        The hello pins :data:`~repro.serve.protocol.PROTOCOL_VERSION` and
        assigns the shard its ring id for this session.
        """
        sock = socket.create_connection(
            handle.address, timeout=_CONNECT_ATTEMPT_TIMEOUT_S
        )
        connection = protocol.StreamConnection(sock)
        try:
            self._send_now(
                connection,
                protocol.HelloCall(
                    request_id=next(self._request_ids),
                    protocol_version=protocol.PROTOCOL_VERSION,
                    shard_id=handle.shard_id,
                ),
            )
            data = connection.recv_bytes()
            decode_started = time.perf_counter()
            reply = protocol.decode_message(data)
            self._count_received(data, time.perf_counter() - decode_started)
        except (EOFError, ProtocolError) as error:
            connection.close()
            raise ServingError(f"remote shard handshake failed: {error}") from error
        except OSError:
            connection.close()
            raise
        if isinstance(reply, protocol.ErrorReply):
            connection.close()
            raise ServingError(f"remote shard refused the handshake: {reply.message}")
        if not isinstance(reply, protocol.HelloReply):
            connection.close()
            raise ServingError(
                f"remote shard answered the hello with {type(reply).__name__}"
            )
        if reply.protocol_version != protocol.PROTOCOL_VERSION:
            connection.close()
            raise ServingError(
                f"remote shard speaks protocol {reply.protocol_version}, "
                f"this supervisor speaks {protocol.PROTOCOL_VERSION}"
            )
        connection.settimeout(None)
        return connection

    def _connect_remote(self, handle: _RemoteShardHandle) -> None:
        """Establish a remote shard's link pool; raises on primary failure.

        Up to ``pool - 1`` extra keep-alive connections are dialed
        **best-effort** after the primary (each with its own handshake): a
        failure just stops pool growth.
        """
        connection = self._handshake_remote(handle)
        handle.reader_done = False
        now = time.monotonic()
        handle.last_pong = now
        handle.last_ping_sent = now
        self._attach_link(handle, connection)
        for _ in range(self._pool - 1):
            try:
                extra = self._handshake_remote(handle)
            except (OSError, ServingError):
                break  # serve over the links we already have
            self._attach_link(handle, extra)

    # -- per-shard reader ---------------------------------------------------

    def _read_loop(self, handle: _ShardHandle, link: _Link) -> None:
        try:
            self._drain_replies(handle, link.connection)
        finally:
            # Only a reader of a *current* link may declare a remote handle
            # dead — a late exit of a replaced link's reader must not shoot
            # down its successor.  Any one pool link dying declares the
            # whole handle dead: its queued frames are unrecoverable, so
            # recovery re-routes everything pending and re-dials the pool.
            if isinstance(handle, _RemoteShardHandle) and link in handle.links:
                handle.reader_done = True

    def _drain_replies(self, handle: _ShardHandle, connection) -> None:
        while True:
            try:
                data = connection.recv_bytes()
            except (EOFError, OSError):
                return  # the monitor notices the dead shard and reroutes
            except ProtocolError:
                # A torn frame: the stream cannot be re-synchronized.
                self._poison(connection)
                return
            try:
                decode_started = time.perf_counter()
                message = protocol.decode_message(data, trusted=handle.trusted)
                decode_s = time.perf_counter() - decode_started
                self._count_received(data, decode_s)
            except ProtocolError:
                # An undecodable reply means reply correlation on this link
                # is lost (we cannot know whose answer this was).  Poison
                # the connection: the shard sees EOF and exits, the monitor
                # respawns it and re-routes every pending request — a
                # recovery instead of a silent hang.
                self._poison(connection)
                return
            request_id = getattr(message, "request_id", -1)
            if isinstance(message, protocol.ErrorReply) and request_id == -1:
                # The shard could not decode one of our calls — the same
                # lost-correlation situation, seen from the other side.
                self._poison(connection)
                return
            with handle.pending_lock:
                entry = handle.pending.pop(request_id, None)
            if entry is None:
                continue  # late reply for a request already re-routed
            _tenant, _, future, trace, _deadline = entry
            if trace is not None:
                # Wall start approximated from the measured duration: no
                # extra clock read on the (dominant) untraced path.
                trace.record(
                    "wire.decode",
                    time.time() - decode_s,
                    decode_s,
                    cat="wire",
                    bytes=len(data),
                )
            if isinstance(message, protocol.ServeReply):
                _resolve(future, result=message.result)
            elif isinstance(
                message,
                (protocol.StatsReply, protocol.PongReply, protocol.ControlReply),
            ):
                _resolve(future, result=message)
            elif isinstance(message, protocol.ErrorReply):
                _resolve(future, error=message.exception())

    @staticmethod
    def _poison(connection) -> None:
        try:
            connection.close()
        except OSError:
            pass

    # -- monitoring / restart ----------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(_MONITOR_INTERVAL_S)
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                handles = list(self._handles.values())
                for handle in handles:
                    if isinstance(handle, _RemoteShardHandle):
                        continue  # handled below, outside the lock
                    if not handle.alive():
                        self._recover(handle)
                    elif handle.restarts and now >= handle.next_restart_at + 60.0:
                        # A minute of health forgives the crash history, so
                        # the next incident starts from an immediate respawn.
                        handle.restarts = 0
            # Remote recovery dials a TCP connection (seconds, worst case):
            # it must not hold the supervisor lock, or every submit() would
            # stall behind one unreachable machine.  Only the monitor
            # thread mutates remote liveness state, so no lock is needed.
            for handle in handles:
                if self._closed:
                    return
                if isinstance(handle, _RemoteShardHandle):
                    self._monitor_remote(handle, time.monotonic())

    def _monitor_remote(self, handle: _RemoteShardHandle, now: float) -> None:
        """Ping-deadline liveness for one remote shard.

        A connected shard is pinged every :data:`_PING_INTERVAL_S`; a pong
        older than :data:`_PING_TIMEOUT_S` — or a reader that saw EOF —
        declares the connection dead: the shard leaves the ring (its keys
        rebalance to ring successors), pending work re-routes, and the
        monitor re-dials on the restart backoff schedule.
        """
        if handle.alive():
            if now - handle.last_pong > _PING_TIMEOUT_S:
                _LOG.warning(
                    "remote shard %d missed its ping deadline; disconnecting",
                    handle.shard_id,
                )
                self._poison(handle.connection)
                self._recover_remote(handle)
            elif now - handle.last_ping_sent >= _PING_INTERVAL_S:
                self._send_ping(handle, now)
            elif handle.restarts and now >= handle.next_restart_at + 60.0:
                handle.restarts = 0  # a minute of health forgives history
        else:
            self._recover_remote(handle)

    def _send_ping(self, handle: _RemoteShardHandle, now: float) -> None:
        request_id = next(self._request_ids)
        future: Future = Future()

        def pong_received(completed: Future) -> None:
            if completed.exception() is None and not completed.cancelled():
                handle.last_pong = time.monotonic()

        future.add_done_callback(pong_received)
        with handle.pending_lock:
            handle.pending[request_id] = (None, None, future, None, None)
        try:
            with handle.send_lock:
                self._send_now(handle.connection, protocol.PingCall(request_id=request_id))
        except (OSError, ValueError, AttributeError):
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            return  # connection is dying; the next tick recovers it
        handle.last_ping_sent = now

    def _recover(self, handle: _ShardHandle) -> None:
        """Re-route a dead shard's pending work; respawn it over its replica.

        Respawns follow :func:`_restart_backoff` (attempt 1 immediate,
        exponential to :data:`_RESTART_BACKOFF_MAX_S` after), so a shard
        that dies at startup — a corrupt environment, an import error — is
        retried at a bounded rate instead of in a tight spawn loop.
        """
        pending = handle.take_pending()
        handle.drop_links()
        now = time.monotonic()
        if self.restart and not self._closed and now >= handle.next_restart_at:
            handle.restarts += 1
            handle.next_restart_at = now + _restart_backoff(handle.restarts + 1)
            self._start_shard(handle)
        self._reroute(handle, pending)

    def _recover_remote(self, handle: _RemoteShardHandle) -> None:
        """Rebalance a disconnected remote shard; re-dial on the backoff.

        Unlike a local shard there is nothing to respawn: the shard leaves
        the ring immediately (so new traffic routes to ring successors
        without a per-request send failure), its pending work re-routes,
        and reconnection attempts follow the same backoff schedule as local
        respawns.  On a successful re-dial the shard re-joins the ring —
        only its own keys move back.
        """
        pending = handle.take_pending()
        handle.drop_links()
        if handle.shard_id in self.router.shard_ids:
            _LOG.warning(
                "remote shard %d disconnected; rebalancing its keys to ring "
                "successors",
                handle.shard_id,
            )
            self.router.remove_shard(handle.shard_id)
        now = time.monotonic()
        if self.restart and not self._closed and now >= handle.next_restart_at:
            handle.restarts += 1
            handle.next_restart_at = now + _restart_backoff(handle.restarts + 1)
            try:
                self._connect_remote(handle)
            except (OSError, ServingError):
                pass  # still down; the monitor re-dials after the backoff
            else:
                with self._lock:
                    if self._closed:  # close() ran while we were dialing
                        handle.drop_links()
                        return
                _LOG.info(
                    "remote shard %d reconnected; re-joining the ring",
                    handle.shard_id,
                )
                self.router.add_shard(handle.shard_id)
        self._reroute(handle, pending)

    def _reroute(self, handle: _ShardHandle, pending) -> None:
        """Re-dispatch a dead shard's pending serves to ring successors."""
        for request_id, (tenant, request, future, trace, deadline_ms) in pending.items():
            if future.done():
                continue
            if request is None:  # stats/ping probes are not worth re-sending
                _resolve(
                    future,
                    error=ServingError(f"shard {handle.shard_id} died during a probe"),
                )
                continue
            try:
                # Rebalance-on-shard-loss: the ring successor takes the key.
                # The recovered shard (empty caches) rejoins for new traffic.
                # The deadline budget restarts on the successor shard — the
                # request already lost its first attempt through no fault
                # of the caller's.
                self._dispatch(
                    request,
                    future,
                    excluding=frozenset({handle.shard_id}),
                    trace=trace,
                    deadline_ms=deadline_ms,
                    tenant=tenant if tenant is not None else DEFAULT_TENANT,
                )
            except ServingError as error:
                _resolve(future, error=error)

    # -- front door ---------------------------------------------------------

    def _dispatch(
        self,
        request: ServeRequest,
        future: Future,
        excluding=frozenset(),
        trace: tracing.TraceHandle | None = None,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        if request.device not in self.devices:
            raise ServingError(
                f"device {request.device!r} is not served by this cluster "
                f"(serving: {', '.join(self.devices)})"
            )
        route_started = time.perf_counter()
        shard_id = self.router.route(request, excluding=excluding)
        route_s = time.perf_counter() - route_started
        handle = self._handles[shard_id]
        request_id = next(self._request_ids)
        encode_started = time.perf_counter()
        data = protocol.encode_message(
            protocol.ServeCall(
                request_id=request_id,
                request=request,
                # wire_field() is None for provisional (exemplar-candidate)
                # traces, which stay local — so this also covers them.
                trace=trace.wire_field() if trace is not None else None,
                deadline_ms=deadline_ms,
                tenant=tenant,
            )
        )
        encode_s = time.perf_counter() - encode_started
        if trace is not None:
            now = time.time()
            trace.record(
                "route", now - encode_s - route_s, route_s, cat="wire", shard=shard_id
            )
            trace.record(
                "wire.encode", now - encode_s, encode_s, cat="wire", bytes=len(data)
            )
        with handle.pending_lock:
            handle.pending[request_id] = (tenant, request, future, trace, deadline_ms)
        try:
            # The enqueue is the whole send from this thread's point of
            # view: the link's sender thread coalesces everything queued
            # since its last flush into one write.  A frame later lost to a
            # dying connection is still in ``pending``, so the monitor's
            # recovery re-routes it — same contract as the old direct send.
            handle.enqueue(data)
        except (OSError, ValueError):
            # The shard died between routing and writing.  If our pending
            # entry is still ours, re-route it past this shard ourselves; if
            # the monitor's recovery already swept it, it re-routes for us.
            with handle.pending_lock:
                entry = handle.pending.pop(request_id, None)
            if entry is not None:
                try:
                    self._dispatch(
                        request,
                        future,
                        excluding=frozenset(excluding) | {shard_id},
                        trace=trace,
                        deadline_ms=deadline_ms,
                        tenant=tenant,
                    )
                except ServingError as error:
                    _resolve(future, error=error)
            return
        self.metrics.inc("wire_messages_sent_total")
        self.metrics.inc("wire_bytes_sent_total", len(data))
        self.metrics.inc("wire_encode_seconds_total", encode_s)
        self.metrics.inc("wire_route_seconds_total", route_s)
        with self._lock:
            self._routed[shard_id] = self._routed.get(shard_id, 0) + 1

    def submit(
        self,
        request: ServeRequest,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Future:
        """Route a request to its shard; the future resolves to the result.

        ``tenant`` names the namespace the request is served under and the
        budget it is admitted against: a tenant with a registered
        :class:`~repro.tenancy.TenantConfig` whose rate or in-flight quota
        is exhausted gets a synchronous
        :class:`~repro.errors.QuotaExceededError` here — the request never
        reaches a shard.  Unregistered tenants (and the default tenant,
        unless explicitly configured) are admitted without limits.

        ``deadline_ms`` is the request's optional end-to-end latency
        budget: it rides the :class:`~repro.serve.protocol.ServeCall`'s
        additive envelope field, and a shard whose result becomes ready
        past the budget sheds it — the future then raises
        :class:`~repro.errors.DeadlineExceededError` instead of returning
        a result nobody is waiting for.
        """
        if deadline_ms is not None and not deadline_ms > 0:
            raise ServingError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        validate_tenant(tenant)
        with self._lock:
            if self._closed:
                raise ServingError("shard supervisor is closed")
        # Admission control at the front door: raises QuotaExceededError
        # before any routing or wire work.  The matching release rides the
        # future's done-callback, so every completion path balances it.
        self.tenants.admit(tenant)
        future: Future = Future()
        future.add_done_callback(
            lambda _completed, _t=tenant: self.tenants.release(_t)
        )
        trace = self.tracer.begin(
            "cluster.request",
            kind=request.kind,
            bits=request.bits,
            **({"tenant": tenant} if tenant != DEFAULT_TENANT else {}),
        )
        if trace is not None:
            # The root span closes when the reply lands (or the request
            # fails), wherever that happens; finish() is idempotent.
            future.add_done_callback(lambda _completed, _t=trace: _t.finish())
        try:
            self._dispatch(
                request, future, trace=trace, deadline_ms=deadline_ms, tenant=tenant
            )
        except BaseException:
            # Routing failed before the request was in flight anywhere;
            # cancelling fires the done-callbacks, balancing the admit.
            if not future.done():
                future.cancel()
            raise
        return future

    def serve(
        self, request: ServeRequest, tenant: str = DEFAULT_TENANT
    ) -> ServeResult:
        """Serve one request through its shard, blocking for the result."""
        return self.submit(request, tenant=tenant).result()

    def routed_counts(self) -> dict[int, int]:
        """Requests routed per shard id since startup (supervisor-side)."""
        with self._lock:
            return dict(sorted(self._routed.items()))

    def kill_shard(self, shard_id: int) -> None:
        """Chaos-engineering hook: take one shard down mid-traffic.

        A local shard's process is terminated outright; a remote shard's
        connections are dropped (its listener stays up, so the monitor's
        re-dial brings it back).  Either way the normal failure machinery
        takes over: pending work re-routes to ring successors, and — with
        ``restart`` enabled — the shard respawns or reconnects on the
        backoff schedule.  This is exactly the path the traffic-replay
        harness's fault injection exercises; it is never called in normal
        operation.
        """
        with self._lock:
            if self._closed:
                raise ServingError("shard supervisor is closed")
            handle = self._handles.get(shard_id)
        if handle is None:
            raise ServingError(f"no shard with id {shard_id}")
        _LOG.warning("fault injection: killing shard %d", shard_id)
        if isinstance(handle, _RemoteShardHandle):
            for link in list(handle.links):
                self._poison(link.connection)
        elif handle.process is not None:
            handle.process.terminate()

    # -- probes / stats -----------------------------------------------------

    def _probe(self, handle: _ShardHandle, message_type, timeout: float):
        """Send one control-plane call built by ``message_type(request_id=...)``
        and block for its reply; ``message_type`` may be a message class or
        any factory (e.g. a ``functools.partial`` carrying extra fields).
        """
        request_id = next(self._request_ids)
        future: Future = Future()
        with handle.pending_lock:
            handle.pending[request_id] = (None, None, future, None, None)
        try:
            with handle.send_lock:
                if handle.connection is None:  # a disconnected remote shard
                    raise OSError("shard connection is down")
                self._send_now(handle.connection, message_type(request_id=request_id))
        except (OSError, ValueError) as error:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            raise ServingError(f"shard {handle.shard_id} is unreachable") from error
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            raise ServingError(
                f"shard {handle.shard_id} did not answer a "
                f"{getattr(message_type, '__name__', 'probe')} "
                f"within {timeout:g}s"
            ) from None

    def ping(self, timeout: float = 5.0) -> dict[int, protocol.PongReply]:
        """Liveness probe of every shard (shard id → pong)."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        return {
            handle.shard_id: self._probe(handle, protocol.PingCall, timeout)
            for handle in handles
        }

    def stats(self, timeout: float = 10.0) -> ClusterStats:
        """Cross-shard aggregated metrics (see :class:`ClusterStats`)."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        shards = tuple(
            self._probe(handle, protocol.StatsCall, timeout).stats
            for handle in sorted(handles, key=lambda one: one.shard_id)
        )
        # The front door's admission state as of now, as series: the
        # default tenant, every configured tenant, and every tenant with
        # requests in flight or refused.
        admission = Registry()
        admission.declare(GAUGE, "in_flight", {"tenant": DEFAULT_TENANT})
        admission.declare(COUNTER, "quota_rejections_total", {"tenant": DEFAULT_TENANT})
        for tenant, state in self.tenants.snapshot().items():
            admission.set("in_flight", state["in_flight"], {"tenant": tenant})
            admission.inc("quota_rejections_total", state["rejected"], {"tenant": tenant})
        samples = merge(
            *(shard.samples for shard in shards),
            self.metrics.samples(),
            admission.samples(),
        )
        return ClusterStats(samples=tuple(samples), shards=shards)

    def warmup(
        self,
        tenant: str | None = None,
        target: str = "python_exec",
        timeout: float = 300.0,
    ) -> dict[int, dict]:
        """Broadcast an in-place warmup to every live shard.

        Each shard pre-compiles its recorded tuning winners into its
        resident table (:func:`~repro.serve.warmup.warm_server`) without a
        restart; ``tenant`` scopes the pass to one namespace, ``None``
        warms them all.  Returns shard id → warmup summary; a shard that
        cannot run the pass (unreachable, or failing it) reports an
        ``"error"`` entry instead of failing the broadcast.
        """
        return self._control(
            functools.partial(
                protocol.ControlCall,
                action=protocol.CONTROL_WARMUP,
                tenant=tenant,
                target=target,
            ),
            tenant,
            timeout,
        )

    def invalidate(
        self,
        tenant: str | None = None,
        refresh: bool = False,
        timeout: float = 300.0,
    ) -> dict[int, dict]:
        """Broadcast a stale-record invalidation to every live shard.

        Each shard drops its stale tuning records and the served state
        behind them (:func:`~repro.serve.invalidate.invalidate_stale`);
        ``tenant`` scopes the pass so one tenant's invalidation never
        evicts another's warm results, and ``refresh`` re-tunes the
        dropped families in place.  Returns shard id → invalidation
        summary, with per-shard ``"error"`` entries instead of broadcast
        failure.
        """
        return self._control(
            functools.partial(
                protocol.ControlCall,
                action=protocol.CONTROL_INVALIDATE,
                tenant=tenant,
                refresh=refresh,
            ),
            tenant,
            timeout,
        )

    def _control(self, call, tenant: str | None, timeout: float) -> dict[int, dict]:
        if tenant is not None:
            validate_tenant(tenant)
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        reports: dict[int, dict] = {}
        for handle in handles:
            try:
                reply = self._probe(handle, call, timeout)
            except Exception as error:  # noqa: BLE001 - per-shard, not fatal
                reports[handle.shard_id] = {"error": str(error)}
                continue
            report = getattr(reply, "report", None)
            reports[handle.shard_id] = (
                dict(report) if isinstance(report, dict) else {}
            )
        return reports

    def wire_snapshot(self) -> WireSnapshot:
        """The supervisor-side wire-path profile without probing any shard."""
        return WireSnapshot.from_samples(self.metrics.samples())

    def drain_spans(self, timeout: float = 10.0) -> tuple[tracing.Span, ...]:
        """Merge cluster-wide trace spans: this process plus every shard.

        Drains the supervisor's own tracer and asks every live shard for its
        retained spans (a :class:`~repro.serve.protocol.StatsCall` with
        ``drain_spans`` set), returning one merged, time-ordered tuple ready for
        :func:`repro.obs.export.write_chrome_trace`.  A shard that died or
        ships a span this build cannot parse is skipped, never fatal.
        """
        spans = list(self.tracer.drain())
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        drain_call = functools.partial(protocol.StatsCall, drain_spans=True)
        for handle in handles:
            try:
                reply = self._probe(handle, drain_call, timeout)
            except ServingError:
                continue
            for payload in getattr(reply, "spans", ()):
                try:
                    spans.append(tracing.Span.from_wire(payload))
                except ValueError:
                    continue
        spans.sort(key=lambda one: one.ts_us)
        return tuple(spans)

    # -- reconciliation / lifecycle ----------------------------------------

    def reconcile(self) -> ReconcileReport | None:
        """Fold every shard replica into the primary database (if file-backed).

        Safe while shards are serving: each replica file is a consistent
        atomic snapshot (the shards' own merge-on-save), and the primary is
        written with the same semantics.
        """
        if self.db_path is None:
            return None
        return reconcile_replicas(self.db_path)

    def close(self) -> ReconcileReport | None:
        """Drain and stop every local shard, disconnect from remote shards,
        then reconcile replicas (and return the report when file-backed).

        Remote shards are **not** shut down — their lifecycle belongs to
        the operator who started their listeners; they keep their warm
        state and go back to accepting the next supervisor.  Quarantined
        replica files (``*.corrupt``, renamed aside by crashed shards) past
        their retention age are dropped here, so a long-lived deployment
        directory does not accumulate them forever.
        """
        with self._lock:
            if self._closed:
                return None
            self._closed = True
        for handle in self._handles.values():
            if isinstance(handle, _RemoteShardHandle):
                continue  # disconnect only; the listener outlives us
            try:
                with handle.send_lock:
                    self._send_now(
                        handle.connection,
                        protocol.ShutdownCall(request_id=next(self._request_ids)),
                    )
            except (OSError, ValueError, AttributeError):
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for handle in self._handles.values():
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        for handle in self._handles.values():
            for _tenant, _, future, _trace, _deadline in handle.take_pending().values():
                if not future.done():
                    _resolve(future, error=ServingError("shard supervisor closed"))
            handle.drop_links()
        report = self.reconcile()
        if self.db_path is not None:
            for dropped in prune_quarantine(self.db_path):
                _LOG.info("dropped aged-out quarantined replica %s", dropped)
        return report

    def __enter__(self) -> ShardSupervisor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
