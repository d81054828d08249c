"""Client API: frontends that delegate kernel compilation to a server.

Two layers:

* :func:`serve_ntt_kernel` / :func:`serve_blas_kernel` — the hook functions
  the existing frontends (:class:`~repro.ntt.generated.GeneratedNTT`,
  :class:`~repro.poly.blas.MomaBlasEngine`) call when constructed with
  ``serve=server``: one blocking request through the server's front door,
  returning the served result (tuned configuration + compiled kernel).
* :class:`ServedNTT` / :class:`ServedBlasEngine` — ready-made wrappers: the
  familiar frontends, constructed against a server, so every instance in a
  long-running process shares the server's pre-warmed caches instead of
  paying its own cold compilation.

Every entry point accepts either a single-process :class:`KernelServer` or a
:class:`~repro.serve.supervisor.ShardSupervisor` — both expose the same
front door (``submit``/``serve``/``devices``), so a frontend is routed
across shard processes simply by being handed a supervisor.  A kernel
from a remote shard is executable only when the supervisor was built with
``execute_remote=True``; otherwise :func:`serve_ntt_kernel` and
:func:`serve_blas_kernels` raise
:class:`~repro.errors.ServingError` instead of handing a frontend source
text.
"""

from __future__ import annotations

from repro.core.codegen.python_exec import CompiledKernel
from repro.errors import ServingError
from repro.kernels.config import KernelConfig
from repro.ntt.generated import GeneratedNTT
from repro.ntt.planner import NTTPlan
from repro.poly.blas import MomaBlasEngine
from repro.serve.server import KernelServer, ServeRequest, ServeResult
from repro.serve.supervisor import ShardSupervisor
from repro.tenancy import DEFAULT_TENANT, validate_tenant
from repro.tune.space import BLAS, NTT

#: What the client functions accept: anything with the server front door
#: (``submit``/``serve``/``devices``) — today the single-process server and
#: the shard supervisor.
ServerLike = KernelServer | ShardSupervisor

__all__ = [
    "serve_many",
    "serve_ntt_kernel",
    "serve_blas_kernel",
    "serve_blas_kernels",
    "ServedNTT",
    "ServedBlasEngine",
]


def serve_many(
    server: ServerLike, requests, tenant: str = DEFAULT_TENANT
) -> list[ServeResult]:
    """Serve a batch of requests, submitting all before awaiting any.

    The batch-friendly front door: against a :class:`ShardSupervisor`, all
    N submissions land in the per-connection outboxes before the first
    result is awaited, so the sender threads coalesce them into a handful
    of socket flushes instead of N request/reply round-trips in lockstep.
    Results come back in request order; a failed request raises when its
    position is reached (earlier results are still returned to callers
    that catch per-future instead — use ``server.submit`` directly for
    per-request error handling).

    ``tenant`` namespaces the whole batch; an invalid id raises
    :class:`ValueError` before anything is submitted.
    """
    validate_tenant(tenant)
    futures = [server.submit(request, tenant=tenant) for request in requests]
    return [future.result() for future in futures]


def _executable(result: ServeResult) -> ServeResult:
    """``result``, or :class:`ServingError` if its kernel is only source."""
    if not isinstance(result.artifact, CompiledKernel):
        raise ServingError(
            f"the {result.request.kind} kernel arrived as source text, not an "
            f"executable kernel: it came from a remote shard, so build the "
            f"ShardSupervisor with execute_remote=True to run it here"
        )
    return result


def serve_ntt_kernel(
    server: ServerLike,
    config: KernelConfig,
    size: int,
    variant: str = "cooley_tukey",
    device: str | None = None,
    tune: bool = True,
    tenant: str = DEFAULT_TENANT,
) -> ServeResult:
    """Request one NTT butterfly kernel (executable target) from a server.

    With ``tune=True`` the served configuration is the autotuner's winner for
    the family; otherwise ``config``'s word width and multiplication
    algorithm are pinned.  Either way the operand/modulus semantics of
    ``config`` are preserved.  ``tenant`` namespaces the request (an
    invalid id raises :class:`ValueError`).
    """
    validate_tenant(tenant)
    request = ServeRequest(
        kind=NTT,
        bits=config.bits,
        operation=variant,
        size=size,
        modulus_bits=config.modulus_bits,
        device=device if device is not None else server.devices[0],
        target="python_exec",
        tune=tune,
        word_bits=config.word_bits,
        multiplication=config.multiplication,
    )
    return _executable(server.serve(request, tenant=tenant))


def serve_blas_kernel(
    server: ServerLike,
    operation: str,
    config: KernelConfig,
    device: str | None = None,
    tune: bool = True,
    tenant: str = DEFAULT_TENANT,
) -> ServeResult:
    """Request one BLAS kernel (executable target) from a server."""
    return serve_blas_kernels(
        server, (operation,), config, device=device, tune=tune, tenant=tenant
    )[operation]


def serve_blas_kernels(
    server: ServerLike,
    operations: tuple[str, ...],
    config: KernelConfig,
    device: str | None = None,
    tune: bool = True,
    tenant: str = DEFAULT_TENANT,
) -> dict[str, ServeResult]:
    """Request several BLAS kernels concurrently from a server.

    All requests are submitted before any is awaited, so cold requests run
    on the worker pool together and their tuning searches join one
    micro-batch (one database save) instead of serializing.  ``tenant``
    namespaces every request in the batch (an invalid id raises
    :class:`ValueError` before anything is submitted).
    """
    validate_tenant(tenant)
    futures = {
        operation: server.submit(
            ServeRequest(
                kind=BLAS,
                bits=config.bits,
                operation=operation,
                modulus_bits=config.modulus_bits,
                device=device if device is not None else server.devices[0],
                target="python_exec",
                tune=tune,
                word_bits=config.word_bits,
                multiplication=config.multiplication,
            ),
            tenant=tenant,
        )
        for operation in operations
    }
    return {
        operation: _executable(future.result()) for operation, future in futures.items()
    }


class ServedNTT(GeneratedNTT):
    """A :class:`GeneratedNTT` whose butterfly kernel comes from a server.

    Args:
        server: the kernel server (or shard supervisor) to request the
            butterfly from.
        size: power-of-two transform length.
        bits: logical operand bit-width.
        modulus_bits: modulus width (``None``: the paper's ``bits - 4``).
        device: device the tuned configuration targets (the server's first
            device by default).
        tune: serve the autotuned winner (default) or the paper default.
        plan: optionally a pre-built :class:`NTTPlan`.
    """

    def __init__(
        self,
        server: ServerLike,
        size: int,
        bits: int,
        modulus_bits: int | None = None,
        device: str | None = None,
        tune: bool = True,
        plan: NTTPlan | None = None,
    ) -> None:
        super().__init__(
            size,
            KernelConfig(bits=bits, modulus_bits=modulus_bits),
            plan=plan,
            autotune=tune,
            device=device if device is not None else server.devices[0],
            serve=server,
        )


class ServedBlasEngine(MomaBlasEngine):
    """A :class:`MomaBlasEngine` whose four kernels come from a server.

    Args:
        server: the kernel server (or shard supervisor) to request the
            kernels from.
        bits: logical operand bit-width.
        modulus_bits: modulus width (``None``: the paper's ``bits - 4``).
        device: device the tuned configurations target (the server's first
            device by default).
        tune: serve the autotuned winners (default) or the paper defaults.
    """

    def __init__(
        self,
        server: ServerLike,
        bits: int,
        modulus_bits: int | None = None,
        device: str | None = None,
        tune: bool = True,
    ) -> None:
        super().__init__(
            KernelConfig(bits=bits, modulus_bits=modulus_bits),
            autotune=tune,
            device=device if device is not None else server.devices[0],
            serve=server,
        )
