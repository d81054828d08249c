"""Summary statistics used by every workload."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return statistics.median(values)


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))
