"""Executable Python backend.

Since this reproduction has no GPU, generated kernels are *executed* through
this backend: the legalized statement list is compiled to a Python function
(one expression per machine-word operation, exactly mirroring what the CUDA
code does with ``uint64_t``/``__int128``), and :class:`CompiledKernel` wraps
it with packing/unpacking between Python integers and machine-word limbs.
The NTT and BLAS libraries run on top of this backend, and the test suite
uses it to check the generated code against the :mod:`repro.arith` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodegenError
from repro.core.codegen.common import check_legal
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group

__all__ = ["INTERFACE_KEYS", "CompiledKernel", "compile_kernel", "generate_python_source"]


def _render_part(part) -> str:
    if isinstance(part, Const):
        return hex(part.value)
    return part.name


def _render_group(group: Group) -> str:
    """Render a group as a Python expression for its numeric value."""
    if len(group) == 1:
        return _render_part(group.parts[0])
    terms = []
    shift = 0
    for part in reversed(group.parts):
        rendered = _render_part(part)
        terms.append(rendered if shift == 0 else f"({rendered} << {shift})")
        shift += part.bits
    return "(" + " | ".join(reversed(terms)) + ")"


def _translate(statement: Statement, word_bits: int) -> list[str]:
    """Translate one machine-legal statement into Python source lines."""
    op = statement.op
    dests = statement.dests.parts
    operands = statement.operands
    mask = (1 << word_bits) - 1

    def assign_split(expression: str) -> list[str]:
        if len(dests) == 1:
            return [f"{dests[0].name} = {expression}"]
        high, low = dests
        return [
            f"_t = {expression}",
            f"{low.name} = _t & {hex(mask)}",
            f"{high.name} = _t >> {word_bits}",
        ]

    if op is OpKind.MOV:
        if len(dests) == 2:
            # Copy into a (carry, word) pair; the source fits in the low part.
            high, low = dests
            return [f"{low.name} = {_render_group(operands[0])}", f"{high.name} = 0"]
        return [f"{dests[0].name} = {_render_group(operands[0])}"]
    if op is OpKind.ADD:
        return assign_split(" + ".join(_render_group(group) for group in operands))
    if op is OpKind.SUB:
        terms = " - ".join(_render_group(group) for group in operands)
        if len(dests) == 2:
            # Subtract-with-borrow: wrap at the (flag + word) width, so the
            # top bit is the outgoing borrow.
            high, low = dests
            dest_mask = (1 << statement.dests.bits) - 1
            return [
                f"_t = ({terms}) & {hex(dest_mask)}",
                f"{low.name} = _t & {hex((1 << low.bits) - 1)}",
                f"{high.name} = _t >> {low.bits}",
            ]
        return [f"{dests[0].name} = ({terms}) & {hex((1 << dests[0].bits) - 1)}"]
    if op is OpKind.MUL:
        a, b = (_render_group(group) for group in operands)
        return assign_split(f"{a} * {b}")
    if op is OpKind.MULLO:
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = ({a} * {b}) & {hex((1 << dests[0].bits) - 1)}"]
    if op in (OpKind.LT, OpKind.LE, OpKind.EQ):
        symbol = {"lt": "<", "le": "<=", "eq": "=="}[op.value]
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = 1 if {a} {symbol} {b} else 0"]
    if op in (OpKind.AND, OpKind.OR):
        symbol = "&" if op is OpKind.AND else "|"
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = {a} {symbol} {b}"]
    if op is OpKind.NOT:
        a = _render_group(operands[0])
        dest_mask = (1 << statement.dests.bits) - 1
        return [f"{dests[0].name} = (~{a}) & {hex(dest_mask)}"]
    if op is OpKind.SELECT:
        condition, if_true, if_false = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = {if_true} if {condition} else {if_false}"]
    if op in (OpKind.SHR, OpKind.SHL):
        amount = statement.attrs["amount"]
        a = _render_group(operands[0])
        symbol = ">>" if op is OpKind.SHR else "<<"
        expression = f"({a} {symbol} {amount})"
        if op is OpKind.SHL:
            expression = f"{expression} & {hex((1 << statement.dests.bits) - 1)}"
        return assign_split(expression) if len(dests) == 2 else [f"{dests[0].name} = {expression}"]
    raise CodegenError(f"no Python translation for operation {op.value}")


def generate_python_source(kernel: Kernel, function_name: str | None = None) -> str:
    """Generate the Python source of the kernel as a flat limb-level function."""
    word_bits = kernel.metadata.get("word_bits", 64)
    check_legal(kernel, word_bits)
    function_name = function_name or kernel.name
    parameters = ", ".join(param.name for param in kernel.params)
    lines = [f"def {function_name}({parameters}):"]
    for statement in kernel.body:
        for line in _translate(statement, word_bits):
            lines.append(f"    {line}")
    returns = ", ".join(output.name for output in kernel.outputs)
    lines.append(f"    return ({returns}{',' if len(kernel.outputs) == 1 else ''})")
    return "\n".join(lines) + "\n"


#: The keys of :meth:`CompiledKernel.interface`: everything the integer-level
#: methods need besides the generated function itself.
INTERFACE_KEYS = (
    "name",
    "word_bits",
    "param_layout",
    "output_layout",
    "original_params",
    "outputs",
)


@dataclass
class CompiledKernel:
    """A legalized kernel compiled to a callable Python function.

    The callable works at the machine-word level (one argument per limb); the
    convenience methods pack and unpack Python integers according to the
    kernel's original interface, including limbs pruned away by the
    non-power-of-two optimization.  That interface is plain data
    (:meth:`interface`), so a kernel rebuilt from its source and interface
    (:meth:`from_interface`) computes exactly what the original does; a
    rebuilt kernel has ``kernel=None``.
    """

    kernel: Kernel | None
    source: str
    function: object
    word_bits: int
    name: str
    #: Original parameter -> its limb names, most significant first; a
    #: pruned limb is ``None``.
    param_layout: dict[str, list[str | None]]
    #: Original output -> its limb names, most significant first.
    output_layout: dict[str, list[str | None]]
    #: ``[name, bits, effective_bits or None]`` per original parameter, in
    #: argument order.
    original_params: list[list]
    #: The function's returned limb names, in return order.
    outputs: list[str]

    def interface(self) -> dict:
        """The kernel's JSON-ready integer interface (:data:`INTERFACE_KEYS`)."""
        return {key: getattr(self, key) for key in INTERFACE_KEYS}

    @classmethod
    def from_interface(cls, source: str, interface: dict) -> CompiledKernel:
        """Rebuild a kernel from its generated source and :meth:`interface`.

        This executes ``source``.  Raises :class:`~repro.errors.CodegenError`
        when the interface is malformed or inconsistent, or when the source
        does not define exactly one function taking one argument per live
        parameter limb.
        """
        fields = _checked_interface(interface)
        function = _exec_source(source, fields["name"])
        live = sum(
            limb is not None for limbs in fields["param_layout"].values() for limb in limbs
        )
        code = getattr(function, "__code__", None)
        if code is None or code.co_argcount != live:
            raise CodegenError(
                f"source for {fields['name']!r} does not take the interface's "
                f"{live} limb arguments"
            )
        return cls(kernel=None, source=source, function=function, **fields)

    # -- integer-level interface -------------------------------------------

    def pack_inputs(self, values: dict[str, int]) -> list[int]:
        """Flatten original-parameter integers into the limb argument list."""
        mask = (1 << self.word_bits) - 1
        arguments: list[int] = []
        for name, bits, effective in self.original_params:
            if name not in values:
                raise CodegenError(f"missing value for parameter {name!r}")
            value = values[name]
            limit = effective if effective is not None else bits
            if value < 0 or value.bit_length() > limit:
                raise CodegenError(
                    f"value for {name!r} must be a non-negative integer of at "
                    f"most {limit} bits"
                )
            limb_names = self.param_layout[name]
            total = bits // self.word_bits
            # Most-significant-first layout; pruned limbs are None and must be zero.
            for index, limb_name in enumerate(limb_names):
                shift = self.word_bits * (total - 1 - index)
                limb_value = (value >> shift) & mask
                if limb_name is None:
                    if limb_value:
                        raise CodegenError(
                            f"value for {name!r} has non-zero bits in a pruned limb"
                        )
                else:
                    arguments.append(limb_value)
        return arguments

    def unpack_outputs(self, raw: tuple) -> dict[str, int]:
        """Recombine the function's limb results into integers per output."""
        limb_values = dict(zip(self.outputs, raw))
        results: dict[str, int] = {}
        for name, limb_names in self.output_layout.items():
            value = 0
            for limb_name in limb_names:
                limb = 0 if limb_name is None else limb_values[limb_name]
                value = (value << self.word_bits) | limb
            results[name] = value
        return results

    def __call__(self, **values: int) -> dict[str, int]:
        """Run the kernel on original-interface integers."""
        raw = self.function(*self.pack_inputs(values))
        return self.unpack_outputs(raw)

    def call_limbs(self, *limb_arguments: int) -> tuple:
        """Run the kernel directly on machine-word limbs (no packing)."""
        return self.function(*limb_arguments)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_layout(value) -> bool:
    """A name -> limb-name list mapping (``None`` marks a pruned limb)."""
    return isinstance(value, dict) and all(
        isinstance(name, str)
        and isinstance(limbs, list)
        and all(limb is None or isinstance(limb, str) for limb in limbs)
        for name, limbs in value.items()
    )


def _checked_interface(interface) -> dict:
    """``interface``'s fields, or :class:`CodegenError` if it is malformed."""
    if not isinstance(interface, dict):
        raise CodegenError(f"kernel interface must be a dict, got {type(interface).__name__}")
    missing = [key for key in INTERFACE_KEYS if key not in interface]
    if missing:
        raise CodegenError(f"kernel interface lacks {missing}")
    fields = {key: interface[key] for key in INTERFACE_KEYS}
    word_bits = fields["word_bits"]
    layouts = fields["param_layout"], fields["output_layout"]
    params, outputs = fields["original_params"], fields["outputs"]
    if not (
        isinstance(fields["name"], str)
        and _is_int(word_bits)
        and word_bits > 0
        and all(_is_layout(layout) for layout in layouts)
        and isinstance(params, list)
        and all(
            isinstance(entry, list)
            and len(entry) == 3
            and entry[0] in layouts[0]
            and _is_int(entry[1])
            and (entry[2] is None or _is_int(entry[2]))
            for entry in params
        )
        and isinstance(outputs, list)
        and all(isinstance(output, str) for output in outputs)
        and all(
            limb is None or limb in outputs for limbs in layouts[1].values() for limb in limbs
        )
    ):
        raise CodegenError(f"malformed kernel interface: {interface!r}")
    return fields


def _exec_source(source: str, kernel_name: str):
    """Exec generated kernel source and return the single function it defines."""
    namespace: dict = {}
    exec(compile(source, f"<moma:{kernel_name}>", "exec"), namespace)  # noqa: S102
    functions = [value for name, value in namespace.items() if not name.startswith("__")]
    if len(functions) != 1 or not callable(functions[0]):
        raise CodegenError(
            f"generated source for {kernel_name!r} must define exactly one function"
        )
    return functions[0]


def compile_kernel(kernel: Kernel) -> CompiledKernel:
    """Compile a legalized kernel into a :class:`CompiledKernel`."""
    word_bits = kernel.metadata.get("word_bits", 64)
    source = generate_python_source(kernel, function_name="_generated")
    return CompiledKernel(
        kernel=kernel,
        source=source,
        function=_exec_source(source, kernel.name),
        word_bits=word_bits,
        name=kernel.name,
        param_layout=kernel.metadata["param_layout"],
        output_layout=kernel.metadata["output_layout"],
        original_params=[list(entry) for entry in kernel.metadata["original_params"]],
        outputs=[output.name for output in kernel.outputs],
    )
