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

The step is :class:`ValueNumbering`.  :func:`~repro.core.rewrite.legalize.legalize`
runs it on each machine-legal piece as the rules produce it, so a legalized
kernel comes out numbered; :func:`value_number` runs it over a kernel.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var

__all__ = ["ValueNumbering", "value_number"]


class ValueNumbering:
    """An output buffer that value-numbers each statement as it is appended.

    :meth:`append` is the per-statement step above.  The legalizer appends
    each machine-legal piece as a rule produces it, so a statement is built
    once, from already-resolved operands, or not at all; :func:`value_number`
    appends an existing kernel's statements.  ``body`` holds the kept
    statements, in order.
    """

    def __init__(self, output_names) -> None:
        self.body: list[Statement] = []
        self._outputs = frozenset(output_names)
        self._known: dict[str, Const] = {}
        self._copies: dict[str, Var] = {}
        # Operand groups are interned by their parts, so equal groups are one
        # object: the CSE key can use identities, and the result shares them.
        self._groups: dict[tuple, Group] = {}
        self._seen: dict[tuple, tuple[Var, ...]] = {}

    def _resolve(self, group: Group) -> Group:
        parts = group.parts
        resolved = None
        for index, part in enumerate(parts):
            if part.__class__ is Var:
                name = part.name
                replacement = self._known.get(name) or self._copies.get(name)
                if replacement is not None:
                    if resolved is None:
                        resolved = list(parts)
                    resolved[index] = replacement
        if resolved is not None:
            parts = tuple(resolved)
        interned = self._groups.get(parts)
        if interned is None:
            interned = self._groups[parts] = group if resolved is None else Group(parts)
        return interned

    def _keep_value(self, dest: Var, source) -> None:
        """Record ``dest`` as another name for ``source``; outputs keep a mov."""
        if source.__class__ is Const:
            self._known[dest.name] = source
        if dest.name in self._outputs:
            self.body.append(
                Statement(OpKind.MOV, Group((dest,)), (self._resolve(Group((source,))),))
            )
        elif source.__class__ is Var:
            self._copies[dest.name] = source

    def append(
        self,
        op: OpKind,
        dests: Group,
        operands: tuple[Group, ...],
        attrs: dict,
        statement: Statement | None = None,
    ) -> None:
        """Value-number ``dests = op(operands)`` and keep it unless it folds,
        is a copy or repeats an earlier result.

        ``statement``, when given, is the same assignment already built; it
        is kept as it is when value numbering leaves it unchanged.
        """
        resolved = tuple(map(self._resolve, operands))
        if statement is not None and any(new is not old for new, old in zip(resolved, operands)):
            statement = None
        operands = resolved

        values = _fold(op, dests, operands, attrs)
        if values is None:
            simplified = _simplify(op, dests, operands, attrs)
            if simplified is not None:
                op, operands, attrs = simplified
                statement = None
                if op is OpKind.MOV:
                    values = _fold(op, dests, operands, attrs)
        if values is not None:
            for dest, value in zip(dests.parts, values):
                self._keep_value(dest, Const(value, dest.type))
            return

        if op is OpKind.MOV:
            source = operands[0].parts
            dest = dests.parts[0]
            if (
                len(dests.parts) == 1
                and len(source) == 1
                and dest.type.bits == source[0].type.bits
                and dest.name not in self._outputs
            ):
                self._copies[dest.name] = source[0]
                return
        else:
            key = (
                op,
                tuple(map(id, operands)),
                tuple(part.type.bits for part in dests.parts),
                tuple(sorted(attrs.items())) if attrs else (),
            )
            previous = self._seen.get(key)
            if previous is not None:
                for dest, source in zip(dests.parts, previous):
                    self._keep_value(dest, source)
                return
            self._seen[key] = dests.parts
        self._groups.setdefault(dests.parts, dests)
        if statement is None:
            statement = Statement(op, dests, operands, attrs)
        self.body.append(statement)


def value_number(kernel: Kernel) -> Kernel:
    """Return a new kernel with constants folded, identities applied,
    copies forwarded and repeated computations reusing earlier results."""
    numbering = ValueNumbering(output.name for output in kernel.outputs)
    for statement in kernel.body:
        numbering.append(
            statement.op, statement.dests, statement.operands, statement.attrs, statement
        )
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=numbering.body,
        metadata=dict(kernel.metadata),
    )


def _fold(op: OpKind, dests: Group, operands: tuple[Group, ...], attrs: dict) -> list[int] | None:
    """Evaluate ``dests = op(operands)`` when every operand is constant.

    Returns the destination parts' values, or ``None`` when some operand
    part is a variable.  Raises :class:`IRError` when the value overflows
    the destinations or a modular operation has a zero modulus.
    """
    values = []
    for group in operands:
        for part in group.parts:
            if part.__class__ is not Const:
                return None
        values.append(group.compose([part.value for part in group.parts]))
    dest_bits = dests.bits

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
        result = values[0] >> attrs["amount"]
    elif op is OpKind.SHL:
        result = (values[0] << attrs["amount"]) % (1 << dest_bits)
    elif op is OpKind.REDUCE:
        value, modulus = values
        result = value - modulus if value >= modulus else value
    elif op in (OpKind.ADDMOD, OpKind.SUBMOD, OpKind.MULMOD):
        a, b, q = values[:3]
        if q == 0:
            raise IRError(f"zero modulus constant in {Statement(op, dests, operands, attrs)}")
        if op is OpKind.ADDMOD:
            result = (a + b) % q
        elif op is OpKind.SUBMOD:
            result = (a - b) % q
        else:
            result = (a * b) % q
    else:  # pragma: no cover - exhaustiveness guard
        return None

    if result >> dest_bits:
        raise IRError(
            f"constant folding overflowed destination in {Statement(op, dests, operands, attrs)}"
        )
    return dests.decompose(result)


def _is_const(group: Group, value: int | None = None) -> bool:
    if len(group) != 1 or group.parts[0].__class__ is not Const:
        return False
    return value is None or group.parts[0].value == value


def _mov(source: Group) -> tuple:
    return OpKind.MOV, (source,), {}


def _const(dests: Group, value: int, part: int = -1) -> tuple:
    return _mov(Group((Const(value, dests.parts[part].type),)))


def _simplify(op: OpKind, dests: Group, operands: tuple[Group, ...], attrs: dict) -> tuple | None:
    """Apply an algebraic identity with partially constant operands.

    Returns the rewritten ``(op, operands, attrs)`` (usually a ``mov``), or
    ``None`` when no identity applies.
    """
    if op is OpKind.ADD:
        non_zero = tuple(group for group in operands if not _is_const(group, 0))
        if not non_zero:
            return _const(dests, 0)
        if len(non_zero) == 1:
            return _mov(non_zero[0])
        if len(non_zero) < len(operands):
            return OpKind.ADD, non_zero, attrs
        return None

    if op is OpKind.SUB:
        # x - 0 - 0 == x.
        if all(_is_const(group, 0) for group in operands[1:]):
            return _mov(operands[0])
        if len(operands) == 3 and _is_const(operands[2], 0):
            return OpKind.SUB, operands[:2], attrs
        return None

    if op in (OpKind.MUL, OpKind.MULLO):
        if any(_is_const(group, 0) for group in operands):
            return _const(dests, 0)
        if _is_const(operands[0], 1):
            return _mov(operands[1])
        if _is_const(operands[1], 1):
            return _mov(operands[0])
        return None

    if op is OpKind.SELECT:
        condition, if_true, if_false = operands
        if _is_const(condition):
            return _mov(if_true if condition.parts[0].value else if_false)
        if if_true == if_false:
            return _mov(if_true)
        return None

    if op is OpKind.AND:
        left, right = operands
        if _is_const(left, 0) or _is_const(right, 0):
            return _const(dests, 0, 0)
        if _is_const(left, 1) and dests.bits == 1:
            return _mov(right)
        if _is_const(right, 1) and dests.bits == 1:
            return _mov(left)
        return None

    if op is OpKind.OR:
        left, right = operands
        if _is_const(left, 0):
            return _mov(right)
        if _is_const(right, 0):
            return _mov(left)
        if (_is_const(left, 1) or _is_const(right, 1)) and dests.bits == 1:
            return _const(dests, 1, 0)
        return None

    if op in (OpKind.SHR, OpKind.SHL):
        if attrs.get("amount", 0) == 0 and operands[0].bits <= dests.bits:
            return _mov(operands[0])
        if _is_const(operands[0], 0):
            return _const(dests, 0)
        return None

    if op is OpKind.LT:
        # x < 0 is always false.
        if _is_const(operands[1], 0):
            return _const(dests, 0, 0)
        return None

    if op is OpKind.LE:
        # 0 <= x is always true.
        if _is_const(operands[0], 0):
            return _const(dests, 1, 0)
        return None

    return None
