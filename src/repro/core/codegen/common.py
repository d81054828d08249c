"""Shared helpers for the C-family backends (CUDA and C99).

The backends translate machine-legal statements (see
:func:`repro.core.rewrite.legalize.is_machine_legal`) into the exact idioms
of the paper's listings: single words are ``uint64_t``, the compiler-provided
double-word storage type is ``unsigned __int128`` (Listing 1's ``i128``), and
every IR statement becomes one or a handful of C statements.  Both C targets
emit the same scalar routine (:func:`generate_scalar_function`); only its
declaration differs.  :func:`check_legal` guards every backend, the Python
one included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodegenError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import Statement
from repro.core.ir.values import Const, Group, Var
from repro.core.rewrite.legalize import is_machine_legal

__all__ = [
    "CTypes",
    "StatementTranslator",
    "check_legal",
    "collect_locals",
    "generate_scalar_function",
    "interface_layout",
]


@dataclass(frozen=True)
class CTypes:
    """C type names for a given machine word width."""

    word_bits: int
    word: str
    double: str
    flag: str

    @classmethod
    def for_word_bits(cls, word_bits: int) -> "CTypes":
        """Types used by the listings: 64-bit words with ``__int128`` storage."""
        if word_bits == 64:
            return cls(64, "uint64_t", "unsigned __int128", "unsigned int")
        if word_bits == 32:
            return cls(32, "uint32_t", "uint64_t", "unsigned int")
        raise CodegenError(
            f"C backends support 32- and 64-bit machine words, got {word_bits}"
        )

    def declared(self, bits: int) -> str:
        """The C type used to declare a variable of ``bits`` bits."""
        if bits <= 32 and self.word_bits == 64:
            return self.flag if bits == 1 else self.word
        if bits == 1:
            return self.flag
        if bits <= self.word_bits:
            return self.word
        raise CodegenError(f"no machine type for a {bits}-bit variable")


def check_legal(kernel: Kernel, word_bits: int) -> None:
    """Raise :class:`CodegenError` unless every statement is machine legal."""
    for statement in kernel.body:
        if not is_machine_legal(statement, word_bits):
            raise CodegenError(
                f"kernel {kernel.name!r} is not legalized for {word_bits}-bit words; "
                f"offending statement: {statement}"
            )


def interface_layout(kernel: Kernel) -> tuple[list[tuple[str, list[str]]], list[tuple[str, list[str]]]]:
    """Original-parameter and output layouts (name -> machine-word limb names).

    Pruned (always-zero) limbs appear as ``None`` in the stored layout and are
    skipped here — they simply never reach the signature.
    """
    metadata = kernel.metadata
    if "param_layout" not in metadata or "output_layout" not in metadata:
        raise CodegenError(
            f"kernel {kernel.name!r} lacks interface layout metadata; legalize it first"
        )
    params = [
        (name, [limb for limb in limbs if limb is not None])
        for name, limbs in metadata["param_layout"].items()
    ]
    outputs = [
        (name, [limb for limb in limbs if limb is not None])
        for name, limbs in metadata["output_layout"].items()
    ]
    return params, outputs


def generate_scalar_function(kernel: Kernel, types: CTypes, declaration: str) -> str:
    """The scalar routine: pointer outputs, flattened limb parameters.

    ``declaration`` is everything before the parameter list, e.g.
    ``"void name"``.  Output limbs are never read before being written (SSA,
    and outputs are mov destinations), so only an assignment to one becomes
    a store through its out-pointer.
    """
    translate = StatementTranslator(types).translate
    _, output_layout = interface_layout(kernel)
    output_limbs = {limb for _, limbs in output_layout for limb in limbs}

    arguments = [f"{types.word} *{limb}" for _, limbs in output_layout for limb in limbs]
    arguments += [f"{types.word} {param.name}" for param in kernel.params]
    lines = [f"{declaration}(" + ", ".join(arguments) + ") {"]
    for local in collect_locals(kernel):
        lines.append(f"    {types.declared(local.bits)} {local.name};")
    for statement in kernel.body:
        for c_line in translate(statement):
            if c_line.partition(" =")[0] in output_limbs:
                c_line = "*" + c_line
            lines.append(f"    {c_line}")
    lines.append("}")
    return "\n".join(lines)


def collect_locals(kernel: Kernel) -> list[Var]:
    """All variables defined by the body that are neither params nor outputs."""
    param_names = {param.name for param in kernel.params}
    output_names = {output.name for output in kernel.outputs}
    seen: dict[str, Var] = {}
    for statement in kernel.body:
        for dest in statement.defined_vars():
            if dest.name not in param_names and dest.name not in output_names:
                seen.setdefault(dest.name, dest)
    return list(seen.values())


class StatementTranslator:
    """Translates one machine-legal statement into C statements."""

    def __init__(self, types: CTypes) -> None:
        self._types = types
        self._scratch_counter = 0

    # -- operand rendering -------------------------------------------------

    def part(self, part) -> str:
        """Render a single operand part (variable reference or literal)."""
        if isinstance(part, Const):
            suffix = "ULL" if self._types.word_bits == 64 else "UL"
            return f"{part.value:#x}{suffix}" if part.value > 9 else f"{part.value}{suffix}"
        return part.name

    def wide(self, group: Group) -> str:
        """Render a (possibly two-part) group as a double-word expression."""
        double = self._types.double
        if len(group) == 1:
            return f"({double}){self.part(group.parts[0])}"
        high, low = group.parts
        return (
            f"((({double}){self.part(high)} << {self._types.word_bits}) | "
            f"({double}){self.part(low)})"
        )

    def _scratch(self) -> str:
        self._scratch_counter += 1
        return f"_w{self._scratch_counter}"

    # -- statement translation ----------------------------------------------

    def translate(self, statement: Statement) -> list[str]:
        """Return the C statements implementing one IR statement."""
        op = statement.op
        handler = getattr(self, f"_emit_{op.value}", None)
        if handler is None:
            raise CodegenError(f"no C translation for operation {op.value}")
        return handler(statement)

    # Each handler returns a list of C statement strings (no trailing newline).

    def _emit_mov(self, statement: Statement) -> list[str]:
        source = self.part(statement.operands[0].parts[0])
        if len(statement.dests) == 2:
            # Copy into a (carry, word) pair: the source fits in the low word.
            high, low = statement.dests.parts
            return [
                f"{low.name} = ({self._types.declared(low.bits)}){source};",
                f"{high.name} = 0;",
            ]
        dest = statement.dests.parts[0].name
        cast = f"({self._types.declared(statement.dests.parts[0].bits)})"
        return [f"{dest} = {cast}{source};"]

    def _split_double(self, statement: Statement, expression: str) -> list[str]:
        """Assign a double-word expression to a 1- or 2-part destination."""
        word_bits = self._types.word_bits
        scratch = self._scratch()
        lines = [f"{self._types.double} {scratch} = {expression};"]
        dests = statement.dests.parts
        if len(dests) == 1:
            lines.append(f"{dests[0].name} = ({self._types.declared(dests[0].bits)}){scratch};")
        else:
            high, low = dests
            lines.append(f"{low.name} = ({self._types.word}){scratch};")
            lines.append(
                f"{high.name} = ({self._types.declared(high.bits)})({scratch} >> {word_bits});"
            )
        return lines

    def _emit_add(self, statement: Statement) -> list[str]:
        terms = " + ".join(self.wide(group) for group in statement.operands)
        return self._split_double(statement, terms)

    def _emit_sub(self, statement: Statement) -> list[str]:
        parts = [self.part(group.parts[0]) for group in statement.operands]
        dests = statement.dests.parts
        if len(dests) == 2:
            # Subtract-with-borrow: the wrap-around difference in the double
            # word has its top bit set exactly when the true result is
            # negative, which is the outgoing borrow.
            double = self._types.double
            expression = " - ".join(f"({double}){part}" for part in parts)
            scratch = self._scratch()
            borrow, diff = dests
            return [
                f"{double} {scratch} = {expression};",
                f"{diff.name} = ({self._types.word}){scratch};",
                f"{borrow.name} = ({self._types.flag})(({scratch} >> {self._types.word_bits}) & 1);",
            ]
        expression = " - ".join(parts)
        dest = dests[0]
        if dest.bits < self._types.word_bits:
            # Narrow (flag-width) destination: wrap at the destination width.
            return [
                f"{dest.name} = ({self._types.declared(dest.bits)})(({expression}) & "
                f"{hex((1 << dest.bits) - 1)});"
            ]
        return [f"{dest.name} = ({self._types.word})({expression});"]

    def _emit_mul(self, statement: Statement) -> list[str]:
        a, b = (self.part(group.parts[0]) for group in statement.operands)
        double = self._types.double
        return self._split_double(statement, f"({double}){a} * ({double}){b}")

    def _emit_mullo(self, statement: Statement) -> list[str]:
        a, b = (self.part(group.parts[0]) for group in statement.operands)
        dest = statement.dests.parts[0]
        return [f"{dest.name} = ({self._types.word})({a} * {b});"]

    def _emit_lt(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "<")

    def _emit_le(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "<=")

    def _emit_eq(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "==")

    def _emit_comparison(self, statement: Statement, operator: str) -> list[str]:
        a, b = (self.part(group.parts[0]) for group in statement.operands)
        dest = statement.dests.parts[0]
        return [f"{dest.name} = ({a} {operator} {b});"]

    def _emit_and(self, statement: Statement) -> list[str]:
        return self._emit_bitwise(statement, "&")

    def _emit_or(self, statement: Statement) -> list[str]:
        return self._emit_bitwise(statement, "|")

    def _emit_bitwise(self, statement: Statement, operator: str) -> list[str]:
        a, b = (self.part(group.parts[0]) for group in statement.operands)
        dest = statement.dests.parts[0]
        return [f"{dest.name} = {a} {operator} {b};"]

    def _emit_not(self, statement: Statement) -> list[str]:
        a = self.part(statement.operands[0].parts[0])
        dest = statement.dests.parts[0]
        if dest.bits == 1:
            return [f"{dest.name} = !{a};"]
        return [f"{dest.name} = ~{a};"]

    def _emit_select(self, statement: Statement) -> list[str]:
        condition, if_true, if_false = (
            self.part(group.parts[0]) for group in statement.operands
        )
        dest = statement.dests.parts[0]
        return [f"{dest.name} = {condition} ? {if_true} : {if_false};"]

    def _emit_shr(self, statement: Statement) -> list[str]:
        return self._emit_shift(statement, ">>")

    def _emit_shl(self, statement: Statement) -> list[str]:
        return self._emit_shift(statement, "<<")

    def _emit_shift(self, statement: Statement, operator: str) -> list[str]:
        amount = statement.attrs["amount"]
        operand = statement.operands[0]
        if len(operand) == 1 and len(statement.dests) == 1 and amount < self._types.word_bits:
            a = self.part(operand.parts[0])
            dest = statement.dests.parts[0]
            return [f"{dest.name} = ({self._types.word})({a} {operator} {amount});"]
        return self._split_double(statement, f"{self.wide(operand)} {operator} {amount}")
