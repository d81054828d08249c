"""The MoMA legalization driver (Section 4's program-transformation pass).

``legalize`` rewrites a kernel until every statement is *machine legal*:
all parts are at most the machine word width and every statement has one of
the shapes that the CUDA/C backends can emit as a single C statement (using
the compiler-provided double-word type only to *store* results, exactly as
Listing 1 assumes).  Two kinds of rewrites apply:

* **expansion** of modular operations (``addmod``/``submod``/``mulmod``/
  ``reduce``) into plain arithmetic, comparisons and selects at the same
  width, and
* **splitting** of operations whose parts are wider than the machine word
  into equivalent sequences at half the width (Table 1).

The pass makes one walk over the kernel.  Each statement is rewritten
depth-first until it is legal, and its legal pieces are appended, in final
order, to a :class:`~repro.core.passes.value_number.ValueNumbering` buffer,
which folds, simplifies, forwards copies and hash-conses each piece as it
arrives.  No statement is visited twice.  Every expansion removes a modular
operation and every split halves the widest part of a statement; a rule
whose piece still needs rewriting but is not smaller in one of these ways
raises :class:`~repro.errors.RewriteError`, so the recursion terminates at
depth ``O(log2(input_bits / word_bits))``.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import NameGenerator, Var
from repro.core.passes.value_number import ValueNumbering
from repro.core.rewrite.options import RewriteOptions
from repro.core.rewrite.rules_expand import EXPANSIONS
from repro.core.rewrite.rules_split import SPLITS
from repro.core.rewrite.splitting import SplitContext

__all__ = ["legalize", "is_machine_legal", "kernel_is_machine_legal"]

#: Legal shapes: ``op -> (max parts per operand group, max destination
#: parts)``.  Two parts form the compiler-provided double-word storage type
#: (e.g. ``unsigned __int128`` for 64-bit words): a carry/borrow word pair as
#: a destination, or a shifted double-word value.  A ``mov`` may target a
#: (carry, word) pair when simplification turns an ``x + 0`` carry-producing
#: addition into a plain copy.  Operations not listed (the modular ones of
#: :data:`EXPANSIONS`) are never legal.
_LEGAL_SHAPES: dict[OpKind, tuple[int, int]] = {
    OpKind.MOV: (1, 2),
    OpKind.ADD: (1, 2),
    OpKind.SUB: (1, 2),
    OpKind.MUL: (1, 2),
    OpKind.MULLO: (1, 1),
    OpKind.SHR: (2, 2),
    OpKind.SHL: (2, 2),
    OpKind.LT: (1, 1),
    OpKind.LE: (1, 1),
    OpKind.EQ: (1, 1),
    OpKind.AND: (1, 1),
    OpKind.OR: (1, 1),
    OpKind.NOT: (1, 1),
    OpKind.SELECT: (1, 1),
}


def _is_legal(op: OpKind, dests, operands, word_bits: int) -> bool:
    shape = _LEGAL_SHAPES.get(op)
    if shape is None:
        if op in EXPANSIONS:
            return False
        raise RewriteError(f"unknown operation {op} in legality check")
    max_operand_parts, max_dest_parts = shape
    parts = dests.parts
    if len(parts) > max_dest_parts:
        return False
    for part in parts:
        if part.type.bits > word_bits:
            return False
    for group in operands:
        parts = group.parts
        if len(parts) > max_operand_parts:
            return False
        for part in parts:
            if part.type.bits > word_bits:
                return False
    return True


def is_machine_legal(statement: Statement, word_bits: int) -> bool:
    """Whether one statement can be emitted directly by the backends."""
    return _is_legal(statement.op, statement.dests, statement.operands, word_bits)


def kernel_is_machine_legal(kernel: Kernel, word_bits: int) -> bool:
    """Whether every statement of a kernel is machine legal."""
    return all(is_machine_legal(statement, word_bits) for statement in kernel.body)


def _shrinks(statement: Statement, piece: Statement) -> bool:
    """Whether ``piece`` drops a modular op of ``statement`` or halves its widest part."""
    if statement.op in EXPANSIONS and piece.op not in EXPANSIONS:
        return True
    return 2 * piece.max_part_bits <= statement.max_part_bits


def _rewrite(
    statement: Statement,
    context: SplitContext,
    options: RewriteOptions,
    numbering: ValueNumbering,
) -> None:
    """Rewrite one illegal statement depth-first, appending its legal pieces."""
    rule = EXPANSIONS.get(statement.op) or SPLITS.get(statement.op)
    if rule is None:
        raise RewriteError(f"no rewrite rule for operation {statement.op.value}: {statement}")
    word_bits = options.word_bits
    for op, dests, operands, attrs in rule(statement, context, options):
        if _is_legal(op, dests, operands, word_bits):
            numbering.append(op, dests, operands, attrs)
            continue
        piece = Statement(op, dests, operands, attrs)
        if not _shrinks(statement, piece):
            raise RewriteError(
                f"rule {rule.__name__} rewrote {statement} into {piece}, "
                f"which is neither free of modular operations nor half as wide"
            )
        _rewrite(piece, context, options, numbering)


def legalize(kernel: Kernel, options: RewriteOptions | None = None) -> Kernel:
    """Rewrite a kernel to machine-legal, value-numbered statements.

    Returns a new kernel whose parameters and outputs are also rewritten to
    machine words: a 256-bit parameter ``x`` becomes four 64-bit parameters
    ``x_0_0, x_0_1, x_1_0, x_1_1`` (most significant first), matching the
    flattened signatures of the paper's generated CUDA (Listing 2's
    ``_daddmod(c0, c1, a0, a1, ...)``).  Parameters whose high words are
    provably zero (``effective_bits``) simply disappear from the signature —
    the non-power-of-two optimization of Section 4.  The body is already
    value numbered; statements left without uses remain for
    :func:`~repro.core.passes.dce.eliminate_dead_code`.
    """
    options = options or RewriteOptions()
    kernel.validate()
    word_bits = options.word_bits

    names = NameGenerator()
    for name in kernel.defined_vars():
        names.reserve(name)
    context = SplitContext(word_bits, names)
    params, param_layout = _interface(kernel.params, context, word_bits)
    outputs, output_layout = _interface(kernel.outputs, context, word_bits)
    numbering = ValueNumbering(output.name for output in outputs)
    for statement in kernel.body:
        if is_machine_legal(statement, word_bits):
            numbering.append(
                statement.op, statement.dests, statement.operands, statement.attrs, statement
            )
        else:
            _rewrite(statement, context, options, numbering)

    legalized = Kernel(
        name=kernel.name,
        params=params,
        outputs=outputs,
        body=numbering.body,
        metadata=dict(kernel.metadata),
    )
    legalized.metadata.setdefault("word_bits", word_bits)
    legalized.metadata.setdefault("multiplication", options.multiplication)
    legalized.metadata["legalized"] = True
    legalized.metadata["original_params"] = [
        (param.name, param.bits, param.effective_bits) for param in kernel.params
    ]
    legalized.metadata["original_outputs"] = [
        (output.name, output.bits) for output in kernel.outputs
    ]
    legalized.metadata["param_layout"] = param_layout
    legalized.metadata["output_layout"] = output_layout
    legalized.validate()
    return legalized



def _interface(variables: list[Var], context: SplitContext, word_bits: int) -> tuple[list[Var], dict]:
    """Wide interface variables as machine-word limbs, plus each one's layout.

    A pruned (always-zero) limb is left out of the limbs and is ``None`` in
    the layout.
    """
    limbs: list[Var] = []
    layout: dict[str, list[str | None]] = {}
    for variable in variables:
        pieces = context.split_part(variable, word_bits)
        limbs.extend(piece for piece in pieces if isinstance(piece, Var))
        layout[variable.name] = [piece.name if isinstance(piece, Var) else None for piece in pieces]
    return limbs, layout
