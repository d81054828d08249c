"""CUDA code generation.

Produces the same kind of output as the paper's SPIRAL NTTX backend: a
``__device__`` scalar routine whose flattened signature matches the listings
(``_daddmod(i64 *c0, i64 *c1, i64 a0, i64 a1, ...)`` style) plus a
``__global__`` element-wise kernel that maps one CUDA thread to one vector
element / butterfly (Section 5.1's parallelization scheme) and a host-side
launch helper.

The generated source is a plain string; on a machine with ``nvcc`` it
compiles as-is.  In this reproduction the string is golden-tested and its
instruction mix is costed by :mod:`repro.gpu`; execution happens through the
Python backend instead (see DESIGN.md's hardware-substitution note).
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.codegen.common import (
    CTypes,
    check_legal,
    generate_scalar_function,
    interface_layout,
)

__all__ = ["generate_cuda", "generate_global_kernel"]

_HEADER = """\
// Auto-generated by repro (MoMA rewrite system) - do not edit.
// Kernel: {name}
// Operand width: {bits} bits, machine word: {word} bits, multiplication: {algorithm}.
#include <stdint.h>
#include <stddef.h>

typedef {word_type} w{word};
typedef {double_type} dw{word};
"""


def generate_global_kernel(kernel: Kernel, types: CTypes) -> str:
    """The ``__global__`` element-wise kernel (one thread per element).

    Each thread loads its element's limbs and calls the ``__forceinline__``
    scalar routine, which stores the results straight into the output arrays.
    """
    param_layout, output_layout = interface_layout(kernel)
    uniform = set(kernel.metadata.get("uniform_params", ()))

    arguments = []
    for name, limbs in param_layout:
        if name in uniform:
            arguments.extend(f"const {types.word} {limb}" for limb in limbs)
        else:
            arguments.append(f"const {types.word} *__restrict__ {name}")
    for name, _ in output_layout:
        arguments.append(f"{types.word} *__restrict__ {name}")
    arguments.append("size_t batch_size")

    lines = [
        f'extern "C" __global__ void {kernel.name}(' + ", ".join(arguments) + ") {",
        "    size_t element = blockIdx.x * (size_t)blockDim.x + threadIdx.x;",
        "    if (element >= batch_size) { return; }",
    ]
    # Load per-element limbs (struct-of-limb-arrays layout: limb-major stride).
    for name, limbs in param_layout:
        if name in uniform:
            continue
        for index, limb in enumerate(limbs):
            lines.append(
                f"    const {types.word} {limb} = {name}[element * {len(limbs)} + {index}];"
            )
    call_arguments = [
        f"&{name}[element * {len(limbs)} + {index}]"
        for name, limbs in output_layout
        for index in range(len(limbs))
    ]
    call_arguments += [param.name for param in kernel.params]
    lines.append(f"    {kernel.name}_scalar(" + ", ".join(call_arguments) + ");")
    lines.append("}")
    return "\n".join(lines)


def generate_launcher(kernel: Kernel, types: CTypes) -> str:
    """A host-side launch helper with the 1,024-thread blocks of Section 5.1."""
    param_layout, output_layout = interface_layout(kernel)
    uniform = set(kernel.metadata.get("uniform_params", ()))
    arguments = []
    call_arguments = []
    for name, limbs in param_layout:
        if name in uniform:
            arguments.extend(f"{types.word} {limb}" for limb in limbs)
            call_arguments.extend(limbs)
        else:
            arguments.append(f"const {types.word} *{name}")
            call_arguments.append(name)
    for name, _ in output_layout:
        arguments.append(f"{types.word} *{name}")
        call_arguments.append(name)
    arguments.append("size_t batch_size")
    call_arguments.append("batch_size")
    lines = [
        f'extern "C" void launch_{kernel.name}(' + ", ".join(arguments) + ", cudaStream_t stream) {",
        "    const int threads_per_block = 1024;",
        "    const int blocks = (int)((batch_size + threads_per_block - 1) / threads_per_block);",
        f"    {kernel.name}<<<blocks, threads_per_block, 0, stream>>>(" + ", ".join(call_arguments) + ");",
        "}",
    ]
    return "\n".join(lines)


def generate_cuda(kernel: Kernel, include_launcher: bool = True) -> str:
    """Generate a complete CUDA translation unit for a legalized kernel."""
    word_bits = kernel.metadata.get("word_bits", 64)
    types = CTypes.for_word_bits(word_bits)
    check_legal(kernel, word_bits)

    header = _HEADER.format(
        name=kernel.name,
        bits=max((bits for _, bits, _ in kernel.metadata.get("original_params", [])), default=word_bits),
        word=word_bits,
        word_type=types.word,
        double_type=types.double,
        algorithm=kernel.metadata.get("multiplication", "schoolbook"),
    )
    scalar = generate_scalar_function(
        kernel, types, f"__device__ __forceinline__ void {kernel.name}_scalar"
    )
    sections = [header, scalar, "", generate_global_kernel(kernel, types)]
    if include_launcher:
        sections.extend(["", generate_launcher(kernel, types)])
    return "\n".join(sections) + "\n"
