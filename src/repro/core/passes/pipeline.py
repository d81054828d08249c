"""Optimization pass pipeline.

The standard pipeline is what the SPIRAL backend does after the MoMA rewrite
pass: fold the constants introduced by zero-limb pruning, remove duplicate
comparisons, forward copies, and delete dead code.  Kernels are
straight-line SSA, so one forward value-numbering sweep does the first three
and one backward sweep the last; nothing is left for a second round.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from repro.core.ir.kernel import Kernel
from repro.core.passes.dce import eliminate_dead_code
from repro.core.passes.value_number import value_number

__all__ = ["optimize", "DEFAULT_PIPELINE", "PassObserver"]

Pass = Callable[[Kernel], Kernel]

#: Callback invoked after each pass application:
#: ``observer(pass_name, round_index, seconds, statements_before, statements_after)``.
#: The pipeline runs once, so ``round_index`` is always 0.
PassObserver = Callable[[str, int, float, int, int], None]

#: The default pass order.
DEFAULT_PIPELINE: tuple[Pass, ...] = (value_number, eliminate_dead_code)


def optimize(
    kernel: Kernel,
    pipeline: Sequence[Pass] = DEFAULT_PIPELINE,
    observer: PassObserver | None = None,
) -> Kernel:
    """Run each pass of ``pipeline`` once, in order, and validate the result.

    ``observer`` (used by the driver's
    :class:`~repro.core.driver.session.CompilerSession` for pipeline
    instrumentation) receives per-pass timing and statement counts.
    """
    for optimization in pipeline:
        statements_before = len(kernel.body)
        started = time.perf_counter()
        kernel = optimization(kernel)
        if observer is not None:
            observer(
                optimization.__name__,
                0,
                time.perf_counter() - started,
                statements_before,
                len(kernel.body),
            )
    kernel.validate()
    return kernel
