"""Statement emitter shared by the rewrite rules.

Rules produce sequences of statements; :class:`Emitter` collects them and
provides small helpers (fresh flags, carry-chain addition, borrow-chain
subtraction) so that the rule implementations read like the right-hand
sides of Table 1.  A collected statement is a :data:`Piece`, its fields not
yet built into a :class:`~repro.core.ir.ops.Statement`: the legalizer builds
one only for a piece it keeps or rewrites further.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.core.ir.ops import OpKind
from repro.core.ir.types import FLAG, IntType
from repro.core.ir.values import Const, Group, Var, as_group
from repro.core.rewrite.splitting import SplitContext

__all__ = ["Emitter", "Piece"]

#: One rewritten statement, ``(op, dests, operands, attrs)``.
Piece = tuple[OpKind, Group, tuple[Group, ...], dict]


def _is_zero(part) -> bool:
    return isinstance(part, Const) and part.value == 0


class Emitter:
    """Accumulates statements produced while rewriting one statement."""

    def __init__(self, context: SplitContext) -> None:
        self._context = context
        self.pieces: list[Piece] = []

    # ------------------------------------------------------------------
    # Raw emission helpers.
    # ------------------------------------------------------------------

    def fresh(self, bits: int, hint: str = "t", effective_bits: int | None = None) -> Var:
        """Fresh temporary variable."""
        return self._context.fresh_var(bits, hint, effective_bits)

    def fresh_flag(self, hint: str = "flag") -> Var:
        """Fresh 1-bit flag variable."""
        return Var(self._context.names.fresh(hint), FLAG)

    def emit(self, op: OpKind, dests, operands, **attrs) -> None:
        """Append the statement ``dests = op(operands)``."""
        self.pieces.append((op, as_group(dests), tuple(as_group(o) for o in operands), attrs))

    def mov(self, dest, source) -> None:
        """dest = source."""
        self.emit(OpKind.MOV, dest, [source])

    def select(self, dest, cond, if_true, if_false) -> None:
        """dest = cond ? if_true : if_false."""
        self.emit(OpKind.SELECT, dest, [cond, if_true, if_false])

    def compare(self, op: OpKind, a, b, hint: str = "flag") -> Var:
        """flag = a <op> b."""
        flag = self.fresh_flag(hint)
        self.emit(op, flag, [a, b])
        return flag

    def logic(self, op: OpKind, a, b=None, hint: str = "flag") -> Var:
        """flag = a <op> b (or not a)."""
        flag = self.fresh_flag(hint)
        operands = [a] if b is None else [a, b]
        self.emit(op, flag, operands)
        return flag

    # ------------------------------------------------------------------
    # Carry/borrow chains over little-endian columns (rules 22, 23, 25, 29).
    # ------------------------------------------------------------------

    def column_add(self, dest_columns: list, addend_columns: list[list], carry_in=None) -> None:
        """Column-wise addition with carry propagation.

        Args:
            dest_columns: little-endian destination parts (all variables).
            addend_columns: one or two little-endian column lists of addends.
            carry_in: optional single carry part added into column 0.
        """
        if len(addend_columns) > 2:
            raise RewriteError("column_add supports at most two addend column lists")
        carry = carry_in
        last = len(dest_columns) - 1
        for index, dest in enumerate(dest_columns):
            addends = [
                columns[index]
                for columns in addend_columns
                if index < len(columns) and not _is_zero(columns[index])
            ]
            if carry is not None and not _is_zero(carry):
                addends.append(carry)
            carry = None
            if not addends:
                self.mov(dest, Const(0, IntType(dest.bits)))
                continue
            if len(addends) == 1:
                self.mov(dest, addends[0])
                continue
            if index == last:
                self.emit(OpKind.ADD, dest, addends)
            else:
                carry = self.fresh_flag("cr")
                self.emit(OpKind.ADD, Group((carry, dest)), addends)

    def column_sub(self, dest_columns: list, minuend: list, subtrahend: list, borrow_in=None) -> None:
        """Column-wise subtraction with borrow propagation (rule 25 generalised).

        Missing columns on either side are treated as zero.  The destination
        columns receive the wrap-around difference.
        """
        borrow = borrow_in
        last = len(dest_columns) - 1
        for index, dest in enumerate(dest_columns):
            a = minuend[index] if index < len(minuend) else Const(0, IntType(dest.bits))
            b = subtrahend[index] if index < len(subtrahend) else Const(0, IntType(dest.bits))
            borrow_is_zero = borrow is None or _is_zero(borrow)
            if _is_zero(b) and borrow_is_zero:
                self.mov(dest, a)
                borrow = None
                continue
            next_borrow = None
            operands = [a, b]
            if not borrow_is_zero:
                operands.append(borrow)
            if index != last and borrow_is_zero:
                # Rule (25): the borrow of the least-significant column is a
                # plain comparison.
                next_borrow = self.compare(OpKind.LT, a, b, hint="br")
                self.emit(OpKind.SUB, dest, operands)
            elif index != last:
                # Columns with an incoming borrow produce their outgoing
                # borrow directly (the hardware subtract-with-borrow form):
                # the destination pair [borrow, diff] is the wrap-around
                # difference, whose top bit is set exactly when the true
                # difference is negative.
                next_borrow = self.fresh_flag("br")
                self.emit(OpKind.SUB, Group((next_borrow, dest)), operands)
            else:
                self.emit(OpKind.SUB, dest, operands)
            borrow = next_borrow
