"""Dead code elimination.

Removes statements none of whose destinations are ever used (by later
statements or as kernel outputs).  This cleans up the statements whose
values value numbering forwarded as constants or copies, the unused high
halves of multiplications whose results feed only a shift (Listing 4's
"will not be used" temporaries when they really are unused), and any
operations orphaned by zero-pruning.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.ir.values import Var

__all__ = ["eliminate_dead_code"]


def eliminate_dead_code(kernel: Kernel) -> Kernel:
    """Return a new kernel without statements whose results are never used."""
    live = {output.name for output in kernel.outputs}
    keep_flags = [False] * len(kernel.body)

    # Walk backwards: a statement is live if any destination is live; its
    # operands then become live too.
    for index in range(len(kernel.body) - 1, -1, -1):
        statement = kernel.body[index]
        if any(dest.name in live for dest in statement.dests.parts):
            keep_flags[index] = True
            for group in statement.operands:
                live.update(part.name for part in group.parts if part.__class__ is Var)

    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=[statement for statement, keep in zip(kernel.body, keep_flags) if keep],
        metadata=dict(kernel.metadata),
    )
