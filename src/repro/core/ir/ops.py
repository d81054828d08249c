"""Operations and statements of the abstract-code IR.

Each :class:`Statement` is one assignment in the paper's notation: a
destination group, an operation, and operand groups, e.g.

    [c0, c1] = addmod([a0, a1], [b0, b1], [q0, q1])

Statements are deliberately flat (no nested expressions); this keeps the
rewrite rules of Table 1 one-to-one with code and makes the generated CUDA
follow the listings' three-address style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique

from repro.errors import IRError
from repro.core.ir.values import Group, Var

__all__ = ["OpKind", "Statement"]


@unique
class OpKind(Enum):
    """The operation set of the IR.

    High-level (modular) operations appear in frontend-built kernels and are
    progressively rewritten away; the low-level operations are what survives
    legalization and maps directly onto CUDA/C statements.
    """

    # Data movement.
    MOV = "mov"
    # Plain multi-digit arithmetic (Section 2.2).
    ADD = "add"          # dests = op0 + op1 (+ op2), must fit exactly
    SUB = "sub"          # dests = op0 - op1 (- op2), wrap-around
    MUL = "mul"          # dests = op0 * op1, must fit exactly
    MULLO = "mullo"      # dests = (op0 * op1) mod 2**dest_bits (low half only)
    # Comparisons; destination is a 1-bit flag.
    LT = "lt"
    LE = "le"
    EQ = "eq"
    # Flag logic.
    AND = "and"
    OR = "or"
    NOT = "not"
    # Conditional assignment.
    SELECT = "select"    # dests = op1 if op0 != 0 else op2
    # Constant shifts (amount in attrs["amount"]).
    SHR = "shr"
    SHL = "shl"
    # Conditional-subtraction reduction (rule 24's `mod`): requires
    # value(op0) < 2 * value(op1).
    REDUCE = "reduce"
    # Modular arithmetic on reduced operands (Section 2.1).
    ADDMOD = "addmod"    # dests = (op0 + op1) mod op2
    SUBMOD = "submod"    # dests = (op0 - op1) mod op2
    MULMOD = "mulmod"    # dests = (op0 * op1) mod op2, op3 = Barrett mu


#: Expected operand-count ranges per operation (min, max).
_ARITY: dict[OpKind, tuple[int, int]] = {
    OpKind.MOV: (1, 1),
    OpKind.ADD: (2, 3),
    OpKind.SUB: (2, 3),
    OpKind.MUL: (2, 2),
    OpKind.MULLO: (2, 2),
    OpKind.LT: (2, 2),
    OpKind.LE: (2, 2),
    OpKind.EQ: (2, 2),
    OpKind.AND: (2, 2),
    OpKind.OR: (2, 2),
    OpKind.NOT: (1, 1),
    OpKind.SELECT: (3, 3),
    OpKind.SHR: (1, 1),
    OpKind.SHL: (1, 1),
    OpKind.REDUCE: (2, 2),
    OpKind.ADDMOD: (3, 3),
    OpKind.SUBMOD: (3, 3),
    OpKind.MULMOD: (3, 4),
}

#: Operations whose destination is a single 1-bit (or wider) flag.
FLAG_OPS = frozenset(
    {OpKind.LT, OpKind.LE, OpKind.EQ, OpKind.AND, OpKind.OR, OpKind.NOT}
)

#: Operations that require an ``amount`` attribute.
SHIFT_OPS = frozenset({OpKind.SHR, OpKind.SHL})

#: Modular operations (operands must be reduced mod the modulus operand).
MODULAR_OPS = frozenset({OpKind.ADDMOD, OpKind.SUBMOD, OpKind.MULMOD})


@dataclass
class Statement:
    """One flat assignment: ``dests = op(operands)``.

    Attributes:
        op: the operation kind.
        dests: destination group; every part must be a variable.
        operands: operand groups (variables and/or constants).
        attrs: operation attributes (currently only ``amount`` for shifts and
            ``algorithm`` for multiplications).
    """

    op: OpKind
    dests: Group
    operands: tuple[Group, ...]
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.dests, Group):
            raise IRError("statement destinations must be a Group")
        for part in self.dests:
            if not isinstance(part, Var):
                raise IRError(f"destination parts must be variables, got {part}")
        self.operands = tuple(self.operands)
        for operand in self.operands:
            if not isinstance(operand, Group):
                raise IRError("statement operands must be Groups")
        low, high = _ARITY[self.op]
        if not low <= len(self.operands) <= high:
            raise IRError(
                f"{self.op.value} expects between {low} and {high} operands, "
                f"got {len(self.operands)}"
            )
        if self.op in SHIFT_OPS and "amount" not in self.attrs:
            raise IRError(f"{self.op.value} requires an 'amount' attribute")
        if self.op in SHIFT_OPS and self.attrs["amount"] < 0:
            raise IRError("shift amount must be non-negative")

    def __str__(self) -> str:
        operands = ", ".join(str(operand) for operand in self.operands)
        suffix = ""
        if self.attrs:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.attrs.items()))
            suffix = f" {{{rendered}}}"
        return f"{self.dests} = {self.op.value}({operands}){suffix}"

    @property
    def max_part_bits(self) -> int:
        """The widest part referenced by this statement (dest or operand)."""
        widths = [self.dests.max_part_bits]
        widths.extend(operand.max_part_bits for operand in self.operands)
        return max(widths)

    def defined_vars(self) -> tuple[Var, ...]:
        """Variables written by this statement."""
        return tuple(part for part in self.dests if isinstance(part, Var))

    def used_vars(self) -> tuple[Var, ...]:
        """Variables read by this statement, in operand order."""
        used: list[Var] = []
        for operand in self.operands:
            used.extend(operand.variables())
        return tuple(used)

