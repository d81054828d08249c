"""Optimization passes run after MoMA legalization."""

from repro.core.passes.dce import eliminate_dead_code
from repro.core.passes.pipeline import DEFAULT_PIPELINE, optimize
from repro.core.passes.value_number import value_number

__all__ = [
    "value_number",
    "eliminate_dead_code",
    "DEFAULT_PIPELINE",
    "optimize",
]
