"""Width-splitting rules (Table 1 of the paper).

Each rule takes one statement whose widest part exceeds the machine word,
splits those parts in half (rule 19, via :class:`SplitContext`), and emits an
equivalent sequence of statements at the halved width:

================  ==========================================================
Rule(s)           Implementation
================  ==========================================================
(19)              ``SplitContext.split_var`` / ``split_const``
(20), (21)        implicit: splitting a value yields its high/low halves
(22), (23), (29)  :func:`split_add` — carry-chain addition over columns
(24)              handled by ``expand_addmod`` + :func:`split_sub`/`split_lt`
(25)              :func:`split_sub` — borrow-chain subtraction
(26)              :func:`split_lt` (and the ``<=`` variant used for
                  canonical residues)
(27)              :func:`split_eq`
(28)              :func:`split_mul` (schoolbook); the Karatsuba alternative
                  of Equation 9 is :func:`split_mul` with
                  ``algorithm="karatsuba"``
================  ==========================================================

plus structural rules the paper leaves implicit (multi-word ``mov``,
``select``, constant shifts — the ``_qshr`` of Listing 4).
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.types import IntType
from repro.core.ir.values import Const, Group
from repro.core.rewrite.emitter import Emitter, Piece
from repro.core.rewrite.options import KARATSUBA, RewriteOptions
from repro.core.rewrite.splitting import SplitContext, group_columns

__all__ = [
    "split_add",
    "split_sub",
    "split_mul",
    "split_mullo",
    "split_lt",
    "split_le",
    "split_eq",
    "split_select",
    "split_mov",
    "split_shift",
    "SPLITS",
]


def _limb_bits(statement: Statement, options: RewriteOptions) -> int:
    """The limb width for one splitting step: half the widest part."""
    widest = statement.max_part_bits
    if widest <= options.word_bits:
        raise RewriteError(
            f"statement does not need splitting (widest part {widest} bits): {statement}"
        )
    if widest % 2:
        raise RewriteError(f"cannot split odd width {widest}: {statement}")
    return widest // 2


def _is_zero(part) -> bool:
    return isinstance(part, Const) and part.value == 0


def split_add(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rules (22)/(23)/(29): carry-chain addition over split limbs."""
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    addend_groups = list(statement.operands)
    carry_in = None
    if len(addend_groups) == 3:
        carry_group = context.split_group(addend_groups.pop(), limb)
        if len(carry_group) != 1:
            raise RewriteError(f"carry-in operand must be a single part: {statement}")
        carry_in = carry_group.parts[0]
    addend_columns = [
        group_columns(context.split_group(group, limb), limb) for group in addend_groups
    ]
    emit = Emitter(context)
    emit.column_add(dest_columns, addend_columns, carry_in)
    return emit.pieces


def split_sub(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rule (25): borrow-chain subtraction over split limbs."""
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    minuend = group_columns(context.split_group(statement.operands[0], limb), limb)
    subtrahend = group_columns(context.split_group(statement.operands[1], limb), limb)
    borrow_in = None
    if len(statement.operands) == 3:
        borrow_group = context.split_group(statement.operands[2], limb)
        if len(borrow_group) != 1:
            raise RewriteError(f"borrow-in operand must be a single part: {statement}")
        borrow_in = borrow_group.parts[0]
    emit = Emitter(context)
    emit.column_sub(dest_columns, minuend, subtrahend, borrow_in)
    return emit.pieces


def _binary_operand_columns(statement: Statement, context: SplitContext, limb: int) -> tuple[list, list]:
    left = group_columns(context.split_group(statement.operands[0], limb), limb)
    right = group_columns(context.split_group(statement.operands[1], limb), limb)
    count = max(len(left), len(right))
    zero = Const(0, IntType(limb))
    left = left + [zero] * (count - len(left))
    right = right + [zero] * (count - len(right))
    return left, right


def _split_comparison(
    statement: Statement, context: SplitContext, options: RewriteOptions, final_op: OpKind
) -> list[Piece]:
    """Rules (26)/(27) generalised to any number of limbs.

    Lexicographic comparison from the most significant limb downward:
    ``a < b  <=>  (a0 < b0) or (a0 == b0 and [a1..] < [b1..])``.
    """
    limb = _limb_bits(statement, options)
    left, right = _binary_operand_columns(statement, context, limb)
    emit = Emitter(context)
    # Work most-significant-first.
    left_ms = list(reversed(left))
    right_ms = list(reversed(right))
    result = None
    equal_so_far = None
    for index, (a, b) in enumerate(zip(left_ms, right_ms)):
        is_last = index == len(left_ms) - 1
        op = final_op if is_last else OpKind.LT
        this_cmp = emit.compare(op, a, b, hint="lt")
        if equal_so_far is not None:
            this_cmp = emit.logic(OpKind.AND, equal_so_far, this_cmp, hint="cmp")
        result = this_cmp if result is None else emit.logic(OpKind.OR, result, this_cmp, hint="cmp")
        if not is_last:
            this_eq = emit.compare(OpKind.EQ, a, b, hint="eq")
            equal_so_far = (
                this_eq
                if equal_so_far is None
                else emit.logic(OpKind.AND, equal_so_far, this_eq, hint="eq")
            )
    emit.mov(statement.dests, result)
    return emit.pieces


def split_lt(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rule (26): multi-word less-than."""
    return _split_comparison(statement, context, options, OpKind.LT)


def split_le(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rule (26) adapted to ``<=`` (used for canonical conditional subtraction)."""
    return _split_comparison(statement, context, options, OpKind.LE)


def split_eq(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rule (27): multi-word equality is the conjunction of limb equalities."""
    limb = _limb_bits(statement, options)
    left, right = _binary_operand_columns(statement, context, limb)
    emit = Emitter(context)
    result = None
    for a, b in zip(reversed(left), reversed(right)):
        this_eq = emit.compare(OpKind.EQ, a, b, hint="eq")
        result = this_eq if result is None else emit.logic(OpKind.AND, result, this_eq, hint="eq")
    emit.mov(statement.dests, result)
    return emit.pieces


def split_select(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Multi-word conditional assignment: one select per destination limb."""
    limb = _limb_bits(statement, options)
    condition_group = context.split_group(statement.operands[0], limb)
    if len(condition_group) != 1:
        raise RewriteError(f"select condition must be a single flag: {statement}")
    condition = condition_group.parts[0]
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    zero = Const(0, IntType(limb))
    true_columns = group_columns(context.split_group(statement.operands[1], limb), limb)
    false_columns = group_columns(context.split_group(statement.operands[2], limb), limb)
    emit = Emitter(context)
    for index, dest in enumerate(dest_columns):
        if_true = true_columns[index] if index < len(true_columns) else zero
        if_false = false_columns[index] if index < len(false_columns) else zero
        emit.select(dest, condition, if_true, if_false)
    return emit.pieces


def split_mov(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Multi-word assignment: one move per destination limb."""
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    source_columns = group_columns(context.split_group(statement.operands[0], limb), limb)
    zero = Const(0, IntType(limb))
    emit = Emitter(context)
    for index, dest in enumerate(dest_columns):
        source = source_columns[index] if index < len(source_columns) else zero
        emit.mov(dest, source)
    return emit.pieces


def split_shift(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Constant right shift across limbs (``_qshr`` of Listing 4, generalised).

    For a right shift each destination limb combines at most two source limbs:
    ``dest[j] = (src[j+s] >> r) | (src[j+s+1] << (limb - r))`` where
    ``s = amount // limb`` and ``r = amount % limb``; a left shift is the
    mirror image.
    """
    limb = _limb_bits(statement, options)
    amount = statement.attrs["amount"]
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    source_columns = group_columns(context.split_group(statement.operands[0], limb), limb)
    skip, remainder = divmod(amount, limb)
    zero = Const(0, IntType(limb))
    emit = Emitter(context)

    def source(index: int):
        if 0 <= index < len(source_columns):
            return source_columns[index]
        return zero

    for index, dest in enumerate(dest_columns):
        if statement.op is OpKind.SHR:
            # Bits [ (index+skip)*limb + remainder , ... ) of the source.
            low_source, high_source = source(index + skip), source(index + skip + 1)
            low_op, high_op = OpKind.SHR, OpKind.SHL
        else:
            # Left shift: dest limb j takes src[j - skip] << r | src[j-skip-1] >> (limb - r).
            low_source, high_source = source(index - skip - 1), source(index - skip)
            low_op, high_op = OpKind.SHR, OpKind.SHL
            # For SHL the "high" fragment is the shifted-left piece of the
            # aligned source limb and the "low" fragment spills in from the
            # limb below.
        if remainder == 0:
            aligned = source(index + skip) if statement.op is OpKind.SHR else source(index - skip)
            emit.mov(dest, aligned)
            continue
        if statement.op is OpKind.SHR:
            fragments = [(low_source, low_op, remainder), (high_source, high_op, limb - remainder)]
        else:
            fragments = [(high_source, high_op, remainder), (low_source, low_op, limb - remainder)]
        fragments = [
            (part, op, shift_by)
            for part, op, shift_by in fragments
            if not _is_zero(part) and shift_by < limb
        ]
        if not fragments:
            emit.mov(dest, zero)
            continue
        if len(fragments) == 1:
            part, op, shift_by = fragments[0]
            if shift_by == 0:
                emit.mov(dest, part)
            else:
                emit.emit(op, dest, [part], amount=shift_by)
            continue
        pieces = []
        for part, op, shift_by in fragments:
            piece = emit.fresh(limb, "shf")
            if shift_by == 0:
                emit.mov(piece, part)
            else:
                emit.emit(op, piece, [part], amount=shift_by)
            pieces.append(piece)
        emit.emit(OpKind.OR, dest, pieces)
    return emit.pieces


def split_mul(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Rule (28) (schoolbook) or Equation 9 (Karatsuba) for widening multiplies."""
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    left = group_columns(context.split_group(statement.operands[0], limb), limb)
    right = group_columns(context.split_group(statement.operands[1], limb), limb)

    if len(left) == 1 and len(right) == 1:
        # The operands were already at the limb width; only the destination
        # needed splitting — re-emit the same multiplication with the split
        # destination (this is the shape `[hi, lo] = a * b`).
        emit = Emitter(context)
        emit.emit(
            OpKind.MUL,
            Group(tuple(reversed(dest_columns))),
            [left[0], right[0]],
            **statement.attrs,
        )
        return emit.pieces

    if len(left) != 2 or len(right) != 2 or len(dest_columns) != 4:
        raise RewriteError(
            f"widening multiplication must be split one doubling at a time: {statement}"
        )

    algorithm = statement.attrs.get("algorithm", options.multiplication)
    if algorithm == KARATSUBA:
        return _split_mul_karatsuba(statement, context, dest_columns, left, right, limb)
    return _split_mul_schoolbook(statement, context, dest_columns, left, right, limb)


def _split_mul_schoolbook(
    statement: Statement,
    context: SplitContext,
    dest_columns: list,
    left: list,
    right: list,
    limb: int,
) -> list[Piece]:
    """Rule (28): four limb products combined with carry chains."""
    emit = Emitter(context)
    a_lo, a_hi = left
    b_lo, b_hi = right
    attrs = dict(statement.attrs)

    def limb_product(x, y, hint):
        if _is_zero(x) or _is_zero(y):
            return Const(0, IntType(limb)), Const(0, IntType(limb))
        hi = emit.fresh(limb, f"{hint}h")
        lo = emit.fresh(limb, f"{hint}l")
        emit.emit(OpKind.MUL, Group((hi, lo)), [x, y], **attrs)
        return hi, lo

    low_hi, low_lo = limb_product(a_lo, b_lo, "ll")          # a1 * b1
    high_hi, high_lo = limb_product(a_hi, b_hi, "hh")        # a0 * b0
    cross1_hi, cross1_lo = limb_product(a_hi, b_lo, "hl")    # a0 * b1
    cross2_hi, cross2_lo = limb_product(a_lo, b_hi, "lh")    # a1 * b0

    # cross = a0*b1 + a1*b0 : a (2*limb + 1)-bit value [carry, hi, lo].
    cross_carry = emit.fresh_flag("cc")
    cross_hi = emit.fresh(limb, "ch")
    cross_lo = emit.fresh(limb, "cl")
    emit.column_add(
        [cross_lo, cross_hi, cross_carry],
        [[cross1_lo, cross1_hi], [cross2_lo, cross2_hi]],
    )

    # result = (a0*b0) << 2w + cross << w + a1*b1  (rule 29's carry chain).
    emit.column_add(
        dest_columns,
        [
            [low_lo, low_hi, high_lo, high_hi],
            [Const(0, IntType(limb)), cross_lo, cross_hi, cross_carry],
        ],
    )
    return emit.pieces


def _split_mul_karatsuba(
    statement: Statement,
    context: SplitContext,
    dest_columns: list,
    left: list,
    right: list,
    limb: int,
) -> list[Piece]:
    """Equation 9: three limb products plus carry-corrected combination."""
    emit = Emitter(context)
    a_lo, a_hi = left
    b_lo, b_hi = right
    attrs = dict(statement.attrs)
    zero = Const(0, IntType(limb))

    def limb_product(x, y, hint):
        if _is_zero(x) or _is_zero(y):
            return zero, zero
        hi = emit.fresh(limb, f"{hint}h")
        lo = emit.fresh(limb, f"{hint}l")
        emit.emit(OpKind.MUL, Group((hi, lo)), [x, y], **attrs)
        return hi, lo

    low_hi, low_lo = limb_product(a_lo, b_lo, "ll")      # a1 * b1
    high_hi, high_lo = limb_product(a_hi, b_hi, "hh")    # a0 * b0

    # Half sums with explicit carry bits.
    carry_a = emit.fresh_flag("ka")
    sum_a = emit.fresh(limb, "sa")
    emit.emit(OpKind.ADD, Group((carry_a, sum_a)), [a_hi, a_lo])
    carry_b = emit.fresh_flag("kb")
    sum_b = emit.fresh(limb, "sb")
    emit.emit(OpKind.ADD, Group((carry_b, sum_b)), [b_hi, b_lo])

    partial_hi, partial_lo = limb_product(sum_a, sum_b, "ks")

    # Carry corrections: (ca ? sb : 0) and (cb ? sa : 0) enter at offset w,
    # (ca & cb) enters at offset 2w.
    correction_b = emit.fresh(limb, "kc")
    emit.select(correction_b, carry_a, sum_b, zero)
    correction_a = emit.fresh(limb, "kd")
    emit.select(correction_a, carry_b, sum_a, zero)
    both_carries = emit.logic(OpKind.AND, carry_a, carry_b, hint="ke")

    # cross = partial + (correction_a + correction_b) << w + both << 2w,
    # a value of at most 2w + 2 bits kept as three limbs.
    corr_carry = emit.fresh_flag("kf")
    corr_sum = emit.fresh(limb, "kg")
    emit.emit(OpKind.ADD, Group((corr_carry, corr_sum)), [correction_a, correction_b])
    mid_carry = emit.fresh_flag("kh")
    cross_mid = emit.fresh(limb, "ki")
    emit.emit(OpKind.ADD, Group((mid_carry, cross_mid)), [partial_hi, corr_sum])
    top_partial = emit.fresh(limb, "kj")
    emit.emit(OpKind.ADD, top_partial, [both_carries, corr_carry])
    cross_top = emit.fresh(limb, "kk")
    emit.emit(OpKind.ADD, cross_top, [top_partial, mid_carry])

    # middle = cross - a0*b0 - a1*b1 (non-negative), three limbs.
    middle_a = [emit.fresh(limb, "km") for _ in range(3)]
    emit.column_sub(middle_a, [partial_lo, cross_mid, cross_top], [high_lo, high_hi])
    middle = [emit.fresh(limb, "kn") for _ in range(3)]
    emit.column_sub(middle, middle_a, [low_lo, low_hi])

    # result = (a0*b0) << 2w + middle << w + a1*b1.
    emit.column_add(
        dest_columns,
        [
            [low_lo, low_hi, high_lo, high_hi],
            [zero, middle[0], middle[1], middle[2]],
        ],
    )
    return emit.pieces


def split_bitwise(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Bitwise AND/OR on wide values: one operation per destination limb.

    These arise from the multi-word shift rule, which combines adjacent limb
    fragments with ``or``; there is no carry interaction, so the split is a
    straight per-column map.
    """
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    left, right = _binary_operand_columns(statement, context, limb)
    emit = Emitter(context)
    for index, dest in enumerate(dest_columns):
        emit.emit(statement.op, dest, [left[index], right[index]])
    return emit.pieces


def split_mullo(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Low-half multiplication: ``dest = (a * b) mod 2**width``.

    Used for the final ``r*q`` product of Barrett reduction, where Listing 4
    discards the high half.  Splitting needs one full limb product for the
    low limbs and only low-half products for the cross terms.
    """
    limb = _limb_bits(statement, options)
    dest_columns = group_columns(context.split_group(statement.dests, limb), limb)
    left = group_columns(context.split_group(statement.operands[0], limb), limb)
    right = group_columns(context.split_group(statement.operands[1], limb), limb)

    if len(left) == 1 and len(right) == 1:
        emit = Emitter(context)
        emit.emit(
            OpKind.MULLO,
            Group(tuple(reversed(dest_columns))),
            [left[0], right[0]],
            **statement.attrs,
        )
        return emit.pieces

    if len(left) != 2 or len(right) != 2 or len(dest_columns) != 2:
        raise RewriteError(
            f"low-half multiplication must be split one doubling at a time: {statement}"
        )

    emit = Emitter(context)
    a_lo, a_hi = left
    b_lo, b_hi = right
    attrs = dict(statement.attrs)
    zero = Const(0, IntType(limb))

    if _is_zero(a_lo) or _is_zero(b_lo):
        low_hi, low_lo = zero, zero
    else:
        low_hi = emit.fresh(limb, "mlh")
        low_lo = emit.fresh(limb, "mll")
        emit.emit(OpKind.MUL, Group((low_hi, low_lo)), [a_lo, b_lo], **attrs)

    def low_product(x, y, hint):
        if _is_zero(x) or _is_zero(y):
            return zero
        result = emit.fresh(limb, hint)
        emit.emit(OpKind.MULLO, result, [x, y], **attrs)
        return result

    cross1 = low_product(a_hi, b_lo, "mc1")
    cross2 = low_product(a_lo, b_hi, "mc2")

    # dest_lo = low_lo; dest_hi = low_hi + cross1 + cross2 (mod 2**limb).
    emit.mov(dest_columns[0], low_lo)
    addends = [part for part in (low_hi, cross1, cross2) if not _is_zero(part)]
    dest_hi = dest_columns[1]
    if not addends:
        emit.mov(dest_hi, zero)
    elif len(addends) == 1:
        emit.mov(dest_hi, addends[0])
    else:
        # Wrap-around additions: route the unused carries to scratch flags.
        accumulator = addends[0]
        for index, addend in enumerate(addends[1:]):
            is_last = index == len(addends) - 2
            target = dest_hi if is_last else emit.fresh(limb, "mac")
            scratch = emit.fresh_flag("mcr")
            emit.emit(OpKind.ADD, Group((scratch, target)), [accumulator, addend])
            accumulator = target
    return emit.pieces


#: Dispatch table used by the legalizer.
SPLITS = {
    OpKind.ADD: split_add,
    OpKind.SUB: split_sub,
    OpKind.MUL: split_mul,
    OpKind.MULLO: split_mullo,
    OpKind.LT: split_lt,
    OpKind.LE: split_le,
    OpKind.EQ: split_eq,
    OpKind.SELECT: split_select,
    OpKind.MOV: split_mov,
    OpKind.SHR: split_shift,
    OpKind.SHL: split_shift,
    OpKind.AND: split_bitwise,
    OpKind.OR: split_bitwise,
}
