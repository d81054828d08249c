"""Data-type splitting infrastructure for the MoMA rewrite system.

Rule (19) of the paper turns a double-word value into a pair of single
words: ``a^{2w} -> [a0^w, a1^w]``.  :class:`SplitContext` implements that
rule for the IR: it splits variables and constants into high/low halves,
remembers the split so every use of a variable sees the same halves, and
applies the paper's non-power-of-two optimization — when a variable's
``effective_bits`` proves that its high half is always zero, the half
becomes a ``Const 0`` so the optimization passes can prune the operations
that touch it (Section 4, Equation 35).

The module also provides the *column* view used by the carry-chain rules:
a group's parts laid out little-endian in limb-width columns.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.core.ir.types import IntType
from repro.core.ir.values import Const, Group, NameGenerator, Var

__all__ = ["SplitContext", "group_columns"]


class SplitContext:
    """Shared state for one legalization run.

    Attributes:
        word_bits: the machine word width legalization targets.
        names: fresh-name generator (seeded with every name already used by
            the kernel, so rewritten code never collides).
    """

    def __init__(self, word_bits: int, names: NameGenerator) -> None:
        self.word_bits = word_bits
        self.names = names
        self._splits: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Variable and constant splitting (rule 19).
    # ------------------------------------------------------------------

    def split_var(self, var: Var) -> tuple:
        """Split ``var`` into (high, low) halves of half its width.

        The same variable always splits into the same halves.  A half that is
        provably zero (because of ``effective_bits``) is returned as a
        ``Const 0`` of the half type.
        """
        if var.bits % 2:
            raise RewriteError(f"cannot split odd-width variable {var}")
        cached = self._splits.get(var.name)
        if cached is not None:
            return cached
        half_bits = var.bits // 2
        half_type = IntType(half_bits)
        effective = var.effective_bits if var.effective_bits is not None else var.bits

        low_effective = min(effective, half_bits)
        low: Var | Const = Var(
            self.names.fresh(f"{var.name}_1"),
            half_type,
            effective_bits=low_effective if low_effective != half_bits else None,
        )
        high_effective = max(0, effective - half_bits)
        if high_effective == 0:
            high: Var | Const = Const(0, half_type)
        else:
            high = Var(
                self.names.fresh(f"{var.name}_0"),
                half_type,
                effective_bits=high_effective if high_effective != half_bits else None,
            )
        result = (high, low)
        self._splits[var.name] = result
        return result

    def split_const(self, const: Const) -> tuple:
        """Split a constant into (high, low) constant halves."""
        if const.bits % 2:
            raise RewriteError(f"cannot split odd-width constant {const}")
        half_bits = const.bits // 2
        half_type = IntType(half_bits)
        return (
            Const(const.value >> half_bits, half_type),
            Const(const.value & half_type.mask, half_type),
        )

    def split_part(self, part, limit_bits: int) -> tuple:
        """Split a part until every piece is at most ``limit_bits`` wide."""
        if part.bits <= limit_bits:
            return (part,)
        halves = self.split_var(part) if isinstance(part, Var) else self.split_const(part)
        pieces: list = []
        for half in halves:
            pieces.extend(self.split_part(half, limit_bits))
        return tuple(pieces)

    def split_group(self, group: Group, limit_bits: int) -> Group:
        """Return ``group`` with every part wider than ``limit_bits`` split."""
        parts: list = []
        for part in group:
            parts.extend(self.split_part(part, limit_bits))
        return Group(tuple(parts))

    def fresh_var(self, bits: int, hint: str = "t", effective_bits: int | None = None) -> Var:
        """Create a fresh temporary of the given width."""
        if effective_bits is not None and effective_bits >= bits:
            effective_bits = None
        return Var(self.names.fresh(hint), IntType(bits), effective_bits=effective_bits)


def group_columns(group: Group, limb_bits: int) -> list:
    """Lay a group's parts out little-endian in ``limb_bits``-wide columns.

    Every part must start at a column boundary (true for all groups the
    rewrite system builds: words of the limb width plus carry flags at the
    most-significant end).  Returns a list where entry ``j`` is the part that
    occupies bits ``[j*limb_bits, (j+1)*limb_bits)``; columns not covered by
    any part are filled with ``Const 0``.
    """
    columns: list = []
    reversed_parts = tuple(reversed(group.parts))
    for index, part in enumerate(reversed_parts):
        if part.bits > limb_bits:
            raise RewriteError(
                f"part {part} is wider than the {limb_bits}-bit column width"
            )
        is_most_significant = index == len(reversed_parts) - 1
        if not is_most_significant and part.bits != limb_bits:
            raise RewriteError(
                f"part {part} of group {group} is narrower than the column width "
                f"but is not the most significant part; the group is not "
                f"column-aligned at {limb_bits} bits"
            )
        columns.append(part)
    return columns

