"""Plain C (C99 + ``__int128``) code generation.

The C backend emits the same scalar routine as the CUDA backend but wrapped
in an ordinary function plus a batch loop, which is what the paper's CPU
baselines would look like if driven by the same generated arithmetic.  It is
also convenient for eyeballing the generated code next to Listings 1-4.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.codegen.common import CTypes, StatementTranslator, check_legal, collect_locals
from repro.core.codegen.cuda import _interface_layout

__all__ = ["generate_c99"]

_HEADER = """\
/* Auto-generated by repro (MoMA rewrite system) - do not edit.
 * Kernel: {name}
 * Machine word: {word} bits, multiplication: {algorithm}.
 */
#include <stdint.h>
#include <stddef.h>
"""


def generate_scalar_function(kernel: Kernel, types: CTypes) -> str:
    """A C function with pointer outputs and flattened limb parameters."""
    translator = StatementTranslator(types)
    _, output_layout = _interface_layout(kernel)
    output_limbs = {limb for _, limbs in output_layout for limb in limbs}

    arguments = [f"{types.word} *{limb}" for _, limbs in output_layout for limb in limbs]
    arguments += [f"{types.word} {param.name}" for param in kernel.params]
    lines = [f"void {kernel.name}(" + ", ".join(arguments) + ") {"]
    for local in collect_locals(kernel):
        lines.append(f"    {types.declared(local.bits)} {local.name};")
    for statement in kernel.body:
        for c_line in translator.translate(statement):
            stripped = c_line.lstrip()
            for limb in output_limbs:
                prefix = f"{limb} ="
                if stripped.startswith(prefix):
                    c_line = f"*{limb} =" + stripped[len(prefix):]
                    break
            lines.append(f"    {c_line}")
    lines.append("}")
    return "\n".join(lines)


def generate_batch_function(kernel: Kernel, types: CTypes) -> str:
    """A batch driver looping the scalar routine over limb-major arrays."""
    param_layout, output_layout = _interface_layout(kernel)
    uniform = set(kernel.metadata.get("uniform_params", ()))

    arguments = []
    for name, limbs in param_layout:
        if name in uniform:
            arguments.extend(f"{types.word} {limb}" for limb in limbs)
        else:
            arguments.append(f"const {types.word} *{name}")
    for name, _ in output_layout:
        arguments.append(f"{types.word} *{name}")
    arguments.append("size_t batch_size")

    call_arguments = []
    for name, limbs in output_layout:
        call_arguments.extend(f"&{name}[i * {len(limbs)} + {index}]" for index in range(len(limbs)))
    for name, limbs in param_layout:
        if name in uniform:
            call_arguments.extend(limbs)
        else:
            call_arguments.extend(f"{name}[i * {len(limbs)} + {index}]" for index in range(len(limbs)))

    lines = [
        f"void {kernel.name}_batch(" + ", ".join(arguments) + ") {",
        "    for (size_t i = 0; i < batch_size; ++i) {",
        f"        {kernel.name}(" + ", ".join(call_arguments) + ");",
        "    }",
        "}",
    ]
    return "\n".join(lines)


def generate_c99(kernel: Kernel, include_batch: bool = True) -> str:
    """Generate a complete C translation unit for a legalized kernel."""
    word_bits = kernel.metadata.get("word_bits", 64)
    types = CTypes.for_word_bits(word_bits)
    check_legal(kernel, word_bits)
    header = _HEADER.format(
        name=kernel.name,
        word=word_bits,
        algorithm=kernel.metadata.get("multiplication", "schoolbook"),
    )
    sections = [header, generate_scalar_function(kernel, types)]
    if include_batch:
        sections.extend(["", generate_batch_function(kernel, types)])
    return "\n".join(sections) + "\n"
