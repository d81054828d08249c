"""Expansion rules for modular operations.

These rules lower ``addmod`` / ``submod`` / ``mulmod`` / ``reduce`` into
plain multi-digit arithmetic, comparisons and selects *at the same operand
width*; the width-splitting rules in :mod:`repro.core.rewrite.rules_split`
then recursively break the resulting wide operations down to machine words.
Applied at the machine word width itself, the expansions produce exactly the
structure of Listing 1 (``_saddmod`` / ``_ssubmod`` / ``_smulmod``); applied
at twice the machine width they reproduce Listings 2 and 4.

The correspondence with the paper:

* ``expand_addmod`` — Equation 2, rules (22)-(24) before splitting.
* ``expand_submod`` — Equation 3.
* ``expand_mulmod`` — Barrett reduction (Equation 18 / Listing 4), including
  the optimization of computing only the low half of the final ``r*q``
  product.
* ``expand_reduce`` — rule (24)'s conditional subtraction on its own.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var
from repro.core.rewrite.emitter import Emitter, Piece
from repro.core.rewrite.options import RewriteOptions
from repro.core.rewrite.splitting import SplitContext

__all__ = [
    "expand_addmod",
    "expand_submod",
    "expand_mulmod",
    "expand_reduce",
    "EXPANSIONS",
]


def _group_effective_bits(group: Group) -> int:
    """Upper bound on the bit-length of a group's runtime value."""
    total = 0
    for part in group:
        if isinstance(part, Var):
            total += part.effective_bits if part.effective_bits is not None else part.bits
        else:
            total += part.bits
    return total


def expand_addmod(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """(a + b) mod q  ->  wide add, compare, subtract, select."""
    a, b, q = statement.operands
    dest = statement.dests
    width = dest.bits
    emit = Emitter(context)

    carry = emit.fresh_flag("cr")
    total = emit.fresh(width, "sum")
    emit.emit(OpKind.ADD, Group((carry, total)), [a, b])
    reduced = emit.fresh(width, "red")
    emit.emit(OpKind.SUB, reduced, [total, q])
    exceeds = emit.compare(OpKind.LE, q, total, hint="ge")
    overflow_or_exceeds = emit.logic(OpKind.OR, carry, exceeds, hint="sel")
    emit.select(dest, overflow_or_exceeds, reduced, total)
    return emit.pieces


def expand_submod(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """(a - b) mod q  ->  compare, wrap-around subtract, add-back, select."""
    a, b, q = statement.operands
    dest = statement.dests
    width = dest.bits
    emit = Emitter(context)

    borrowed = emit.compare(OpKind.LT, a, b, hint="br")
    difference = emit.fresh(width, "dif")
    emit.emit(OpKind.SUB, difference, [a, b])
    carry = emit.fresh_flag("cr")
    wrapped = emit.fresh(width, "wrp")
    emit.emit(OpKind.ADD, Group((carry, wrapped)), [difference, q])
    emit.select(dest, borrowed, wrapped, difference)
    return emit.pieces


def expand_reduce(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Conditional subtraction of a value known to be below ``2q`` (rule 24)."""
    value, q = statement.operands
    dest = statement.dests
    width = dest.bits
    emit = Emitter(context)

    reduced = emit.fresh(width, "red")
    emit.emit(OpKind.SUB, reduced, [value, q])
    exceeds = emit.compare(OpKind.LE, q, value, hint="ge")
    emit.select(dest, exceeds, reduced, value)
    return emit.pieces


def expand_mulmod(statement: Statement, context: SplitContext, options: RewriteOptions) -> list[Piece]:
    """Barrett modular multiplication (Listing 4 at arbitrary width).

    The modulus bit-width (``MBITS``) is taken, in order of preference, from
    the statement's ``modulus_bits`` attribute, from the modulus variable's
    ``effective_bits``, or defaults to ``width - 4`` (the paper's headroom
    convention).  The Barrett constant ``mu`` must be supplied as the fourth
    operand unless the modulus is a compile-time constant, in which case
    ``mu`` is computed here and embedded as a constant.
    """
    a, b, q = statement.operands[:3]
    dest = statement.dests
    width = dest.bits
    algorithm = statement.attrs.get("algorithm", options.multiplication)

    modulus_bits = statement.attrs.get("modulus_bits")
    if modulus_bits is None:
        modulus_bits = _group_effective_bits(q)
        if modulus_bits >= width:
            modulus_bits = width - 4
    if not 8 <= modulus_bits <= width - 4:
        raise RewriteError(
            f"Barrett mulmod at width {width} requires a modulus of at most "
            f"{width - 4} bits, got {modulus_bits}"
        )

    if len(statement.operands) == 4:
        mu = statement.operands[3]
    else:
        constant_modulus = _constant_value(q)
        if constant_modulus is None:
            raise RewriteError(
                "mulmod needs an explicit Barrett constant (mu) unless the "
                f"modulus is a compile-time constant: {statement}"
            )
        mu_value = (1 << (2 * modulus_bits + 3)) // constant_modulus
        mu = Group((Const(mu_value, q.parts[0].type),)) if len(q.parts) == 1 else None
        if mu is None:
            raise RewriteError("constant modulus groups with multiple parts are not supported")

    emit = Emitter(context)

    # product = a * b (full 2*width result, rule 28 after splitting).
    # Note: destination variables never carry effective_bits — known-zero
    # high words are pruned on the *operand* side by constant folding, which
    # keeps destinations writable variables at every recursion level.
    product_hi = emit.fresh(width, "ph")
    product_lo = emit.fresh(width, "pl")
    emit.emit(OpKind.MUL, Group((product_hi, product_lo)), [a, b], algorithm=algorithm)

    # estimate = product >> (MBITS - 2)
    estimate = emit.fresh(width, "est")
    emit.emit(
        OpKind.SHR, estimate, [Group((product_hi, product_lo))], amount=modulus_bits - 2
    )

    # estimate * mu, then >> (MBITS + 5) to obtain the quotient guess.
    scaled_hi = emit.fresh(width, "sh")
    scaled_lo = emit.fresh(width, "sl")
    emit.emit(OpKind.MUL, Group((scaled_hi, scaled_lo)), [estimate, mu], algorithm=algorithm)
    quotient = emit.fresh(width, "quo")
    emit.emit(
        OpKind.SHR, quotient, [Group((scaled_hi, scaled_lo))], amount=modulus_bits + 5
    )

    # remainder = product_lo - low_half(quotient * q): only the low half of the
    # third multiplication is needed (Listing 4's optimization).
    quotient_q = emit.fresh(width, "qq")
    emit.emit(OpKind.MULLO, quotient_q, [quotient, q], algorithm=algorithm)
    remainder = emit.fresh(width, "rem")
    emit.emit(OpKind.SUB, remainder, [product_lo, quotient_q])

    # Single conditional correction to the canonical residue.
    corrected = emit.fresh(width, "cor")
    emit.emit(OpKind.SUB, corrected, [remainder, q])
    exceeds = emit.compare(OpKind.LE, q, remainder, hint="ge")
    emit.select(dest, exceeds, corrected, remainder)
    return emit.pieces


def _constant_value(group: Group) -> int | None:
    """The numeric value of a group made entirely of constants, else None."""
    values = []
    for part in group:
        if not isinstance(part, Const):
            return None
        values.append(part.value)
    return group.compose(values)


#: Dispatch table used by the legalizer.
EXPANSIONS = {
    OpKind.ADDMOD: expand_addmod,
    OpKind.SUBMOD: expand_submod,
    OpKind.MULMOD: expand_mulmod,
    OpKind.REDUCE: expand_reduce,
}
