"""Value numbering: folding, simplification, copy propagation and CSE in one sweep.

MoMA's rewrite leaves two kinds of redundancy behind.  Zero-limb pruning
(Section 4, Equation 35) turns the high words of non-power-of-two operands
into constants, so whole chains of additions, multiplications and
comparisons become computable at code-generation time.  The comparison
chains of rules (24)-(26) recompute limb equalities and less-thans that
earlier statements already produced (Listing 4's ``_dlt`` and ``_dsub``).

Kernels are straight-line SSA, so every fact flows forward from a definition
to its uses and one forward sweep finds all of it (Click and Cooper,
*Combining Analyses, Combining Optimizations*, TOPLAS 1995).  For each
statement, in order:

1. each operand part is resolved through the constants (``known``) and
   copies (``copies``) recorded so far;
2. a statement whose operands are all constant is evaluated (``_fold``);
3. otherwise algebraic identities with partially constant operands apply
   (``_simplify``): ``x + 0``, ``x * 0``, ``x * 1``, ``select`` on a
   constant condition, ``or`` with zero, shift by zero, ...;
4. a same-width single-part ``mov`` is recorded as a copy and dropped;
5. any other operation is hash-consed on its resolved operands, and a
   repeat maps its destinations onto the earlier result.

A kernel output is never dropped: when its value folds, is a copy or repeats
an earlier result, a ``mov`` into it is kept.  Statements left without uses
are removed by :func:`~repro.core.passes.dce.eliminate_dead_code`.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var

__all__ = ["value_number"]


def value_number(kernel: Kernel) -> Kernel:
    """Return a new kernel with constants folded, identities applied,
    copies forwarded and repeated computations reusing earlier results."""
    output_names = {output.name for output in kernel.outputs}
    known: dict[str, Const] = {}
    copies: dict[str, Var] = {}
    # Operand groups are interned by their parts, so equal groups are one
    # object: the CSE key can use identities, and the result shares them.
    groups: dict[tuple, Group] = {}
    seen: dict[tuple, tuple[Var, ...]] = {}
    body: list[Statement] = []

    def resolve(group: Group) -> Group:
        parts = group.parts
        resolved = None
        for index, part in enumerate(parts):
            if part.__class__ is Var:
                replacement = known.get(part.name) or copies.get(part.name)
                if replacement is not None:
                    if resolved is None:
                        resolved = list(parts)
                    resolved[index] = replacement
        if resolved is not None:
            parts = tuple(resolved)
        interned = groups.get(parts)
        if interned is None:
            interned = groups[parts] = group if resolved is None else Group(parts)
        return interned

    def keep_value(dest: Var, source) -> None:
        """Record ``dest`` as another name for ``source``; outputs keep a mov."""
        if source.__class__ is Const:
            known[dest.name] = source
        if dest.name in output_names:
            body.append(Statement(OpKind.MOV, Group((dest,)), (resolve(Group((source,))),)))
        elif source.__class__ is Var:
            copies[dest.name] = source

    for statement in kernel.body:
        operands = tuple(resolve(group) for group in statement.operands)
        if any(new is not old for new, old in zip(operands, statement.operands)):
            statement = Statement(statement.op, statement.dests, operands, statement.attrs)

        values = _fold(statement)
        if values is None:
            statement = _simplify(statement)
            if statement.op is OpKind.MOV:
                values = _fold(statement)
        if values is not None:
            for dest, value in zip(statement.dests.parts, values):
                keep_value(dest, Const(value, dest.type))
            continue

        dests = statement.dests
        if statement.op is OpKind.MOV:
            source = statement.operands[0]
            dest = dests.parts[0]
            if (
                len(dests) == 1
                and len(source) == 1
                and dest.bits == source.bits
                and dest.name not in output_names
            ):
                copies[dest.name] = source.parts[0]
                continue
        else:
            key = (
                statement.op,
                tuple(map(id, statement.operands)),
                tuple(part.type.bits for part in dests.parts),
                tuple(sorted(statement.attrs.items())) if statement.attrs else (),
            )
            previous = seen.get(key)
            if previous is not None:
                for dest, source in zip(dests.parts, previous):
                    keep_value(dest, source)
                continue
            seen[key] = dests.parts
        groups.setdefault(dests.parts, dests)
        body.append(statement)

    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=body,
        metadata=dict(kernel.metadata),
    )


def _fold(statement: Statement) -> list[int] | None:
    """Evaluate a statement whose operands are all constant.

    Returns the destination parts' values, or ``None`` when some operand
    part is a variable.  Raises :class:`IRError` when the value overflows
    the destinations or a modular operation has a zero modulus.
    """
    values = []
    for group in statement.operands:
        if any(part.__class__ is not Const for part in group.parts):
            return None
        values.append(group.compose([part.value for part in group.parts]))
    op = statement.op
    dest_bits = statement.dests.bits

    if op is OpKind.MOV:
        result = values[0]
    elif op is OpKind.ADD:
        result = sum(values)
    elif op is OpKind.SUB:
        result = (values[0] - values[1] - (values[2] if len(values) == 3 else 0)) % (1 << dest_bits)
    elif op is OpKind.MUL:
        result = values[0] * values[1]
    elif op is OpKind.MULLO:
        result = (values[0] * values[1]) % (1 << dest_bits)
    elif op is OpKind.LT:
        result = int(values[0] < values[1])
    elif op is OpKind.LE:
        result = int(values[0] <= values[1])
    elif op is OpKind.EQ:
        result = int(values[0] == values[1])
    elif op is OpKind.AND:
        result = values[0] & values[1]
    elif op is OpKind.OR:
        result = values[0] | values[1]
    elif op is OpKind.NOT:
        result = (~values[0]) % (1 << dest_bits)
    elif op is OpKind.SELECT:
        result = values[1] if values[0] else values[2]
    elif op is OpKind.SHR:
        result = values[0] >> statement.attrs["amount"]
    elif op is OpKind.SHL:
        result = (values[0] << statement.attrs["amount"]) % (1 << dest_bits)
    elif op is OpKind.REDUCE:
        value, modulus = values
        result = value - modulus if value >= modulus else value
    elif op in (OpKind.ADDMOD, OpKind.SUBMOD, OpKind.MULMOD):
        a, b, q = values[:3]
        if q == 0:
            raise IRError(f"zero modulus constant in {statement}")
        if op is OpKind.ADDMOD:
            result = (a + b) % q
        elif op is OpKind.SUBMOD:
            result = (a - b) % q
        else:
            result = (a * b) % q
    else:  # pragma: no cover - exhaustiveness guard
        return None

    if result >> dest_bits:
        raise IRError(f"constant folding overflowed destination in {statement}")
    return statement.dests.decompose(result)


def _is_const(group: Group, value: int | None = None) -> bool:
    if len(group) != 1 or group.parts[0].__class__ is not Const:
        return False
    return value is None or group.parts[0].value == value


def _mov(dests: Group, source: Group) -> Statement:
    return Statement(OpKind.MOV, dests, (source,))


def _const(dests: Group, value: int, part: int = -1) -> Group:
    return Group((Const(value, dests.parts[part].type),))


def _simplify(statement: Statement) -> Statement:
    """Apply an algebraic identity with partially constant operands.

    Returns the rewritten statement (usually a ``mov``), or ``statement``
    itself when no identity applies.
    """
    op = statement.op
    operands = statement.operands
    dests = statement.dests

    if op is OpKind.ADD:
        non_zero = [group for group in operands if not _is_const(group, 0)]
        if not non_zero:
            return _mov(dests, _const(dests, 0))
        if len(non_zero) == 1:
            return _mov(dests, non_zero[0])
        if len(non_zero) < len(operands):
            return Statement(OpKind.ADD, dests, tuple(non_zero), statement.attrs)
        return statement

    if op is OpKind.SUB:
        # x - 0 - 0 == x.
        if all(_is_const(group, 0) for group in operands[1:]):
            return _mov(dests, operands[0])
        if len(operands) == 3 and _is_const(operands[2], 0):
            return Statement(OpKind.SUB, dests, operands[:2], statement.attrs)
        return statement

    if op in (OpKind.MUL, OpKind.MULLO):
        if any(_is_const(group, 0) for group in operands):
            return _mov(dests, _const(dests, 0))
        if _is_const(operands[0], 1):
            return _mov(dests, operands[1])
        if _is_const(operands[1], 1):
            return _mov(dests, operands[0])
        return statement

    if op is OpKind.SELECT:
        condition, if_true, if_false = operands
        if _is_const(condition):
            return _mov(dests, if_true if condition.parts[0].value else if_false)
        if if_true == if_false:
            return _mov(dests, if_true)
        return statement

    if op is OpKind.AND:
        left, right = operands
        if _is_const(left, 0) or _is_const(right, 0):
            return _mov(dests, _const(dests, 0, 0))
        if _is_const(left, 1) and dests.bits == 1:
            return _mov(dests, right)
        if _is_const(right, 1) and dests.bits == 1:
            return _mov(dests, left)
        return statement

    if op is OpKind.OR:
        left, right = operands
        if _is_const(left, 0):
            return _mov(dests, right)
        if _is_const(right, 0):
            return _mov(dests, left)
        if (_is_const(left, 1) or _is_const(right, 1)) and dests.bits == 1:
            return _mov(dests, _const(dests, 1, 0))
        return statement

    if op in (OpKind.SHR, OpKind.SHL):
        if statement.attrs.get("amount", 0) == 0 and operands[0].bits <= dests.bits:
            return _mov(dests, operands[0])
        if _is_const(operands[0], 0):
            return _mov(dests, _const(dests, 0))
        return statement

    if op is OpKind.LT:
        # x < 0 is always false.
        if _is_const(operands[1], 0):
            return _mov(dests, _const(dests, 0, 0))
        return statement

    if op is OpKind.LE:
        # 0 <= x is always true.
        if _is_const(operands[0], 0):
            return _mov(dests, _const(dests, 1, 0))
        return statement

    return statement
