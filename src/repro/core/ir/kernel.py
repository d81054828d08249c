"""Kernels: straight-line abstract-code functions.

A :class:`Kernel` is the unit the rewrite system operates on: a named,
straight-line sequence of statements over typed scalar parameters.  This
mirrors the paper's setting — MoMA rewrites the *scalar* computation (one
butterfly, one vector element) while the surrounding GPU structure (thread
indexing, batching, array layout) is added by the backend wrappers in
:mod:`repro.core.codegen` and costed by :mod:`repro.gpu`.

Kernels are in SSA form: every variable is assigned by exactly one statement
(or is a parameter), which keeps the rewrite rules, the optimization passes
and the backends simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError
from repro.core.ir.ops import Statement
from repro.core.ir.values import Var

__all__ = ["Kernel"]


@dataclass
class Kernel:
    """A straight-line abstract-code function.

    Attributes:
        name: kernel name (becomes the CUDA ``__global__`` / C function name).
        params: input parameters, in signature order.
        outputs: variables whose final values are the kernel results, in
            signature order; each must be defined by the body (or be a
            parameter, for pass-through outputs).
        body: the statements.
        metadata: free-form information recorded by frontends (operand
            bit-width, modulus bit-width, kernel family, ...), consumed by the
            evaluation harnesses and backends.
    """

    name: str
    params: list[Var]
    outputs: list[Var]
    body: list[Statement]
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check SSA form and use-before-definition; raise :class:`IRError` if violated."""
        if not self.name:
            raise IRError("kernel name must be non-empty")
        defined: dict[str, Var] = {}
        for param in self.params:
            if param.name in defined:
                raise IRError(f"duplicate parameter name {param.name!r}")
            defined[param.name] = param
        for index, statement in enumerate(self.body):
            for used in statement.used_vars():
                known = defined.get(used.name)
                if known is None:
                    raise IRError(
                        f"statement {index} ({statement}) uses undefined variable {used.name!r}"
                    )
                if known.type != used.type:
                    raise IRError(
                        f"statement {index} uses {used.name!r} at type {used.type} "
                        f"but it was defined at type {known.type}"
                    )
            for dest in statement.defined_vars():
                if dest.name in defined:
                    raise IRError(
                        f"statement {index} redefines {dest.name!r}; kernels are SSA"
                    )
                defined[dest.name] = dest
        for output in self.outputs:
            known = defined.get(output.name)
            if known is None:
                raise IRError(f"output {output.name!r} is never defined")
            if known.type != output.type:
                raise IRError(
                    f"output {output.name!r} declared as {output.type} but defined as {known.type}"
                )

    def defined_vars(self) -> dict[str, Var]:
        """All variables defined by parameters or statements, keyed by name."""
        defined = {param.name: param for param in self.params}
        for statement in self.body:
            for dest in statement.defined_vars():
                defined[dest.name] = dest
        return defined

    def statement_count(self) -> int:
        """Number of statements in the body."""
        return len(self.body)

