"""Typed abstract-code IR (the SPIRAL "icode" analogue).

The IR is the substrate the MoMA rewrite system operates on: typed scalar
variables and constants, operand groups (the paper's bracketed multi-word
values), flat statements, and straight-line kernels in SSA form.
"""

from repro.core.ir.builder import KernelBuilder
from repro.core.ir.fingerprint import kernel_digest, kernel_signature
from repro.core.ir.interp import interpret
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.printer import format_kernel, format_signature
from repro.core.ir.types import FLAG, IntType, u64, u128, u256
from repro.core.ir.values import Const, Group, NameGenerator, Var, as_group

__all__ = [
    "KernelBuilder",
    "kernel_digest",
    "kernel_signature",
    "interpret",
    "Kernel",
    "OpKind",
    "Statement",
    "format_kernel",
    "format_signature",
    "FLAG",
    "IntType",
    "u64",
    "u128",
    "u256",
    "Const",
    "Group",
    "NameGenerator",
    "Var",
    "as_group",
]
