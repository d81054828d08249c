"""Plain C (C99 + ``__int128``) code generation.

The C backend emits the same scalar routine as the CUDA backend but wrapped
in an ordinary function plus a batch loop, which is what the paper's CPU
baselines would look like if driven by the same generated arithmetic.  It is
also convenient for eyeballing the generated code next to Listings 1-4.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.codegen.common import (
    CTypes,
    check_legal,
    generate_scalar_function,
    interface_layout,
)

__all__ = ["generate_c99"]

_HEADER = """\
/* Auto-generated by repro (MoMA rewrite system) - do not edit.
 * Kernel: {name}
 * Machine word: {word} bits, multiplication: {algorithm}.
 */
#include <stdint.h>
#include <stddef.h>
"""


def generate_batch_function(kernel: Kernel, types: CTypes) -> str:
    """A batch driver looping the scalar routine over limb-major arrays."""
    param_layout, output_layout = interface_layout(kernel)
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
    sections = [header, generate_scalar_function(kernel, types, f"void {kernel.name}")]
    if include_batch:
        sections.extend(["", generate_batch_function(kernel, types)])
    return "\n".join(sections) + "\n"
