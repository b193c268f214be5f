"""Summary statistics for the benchmark's host timings.

A timing is reported as its median plus the highest percentile that
still has at least :data:`TAIL_MIN_BEYOND` samples strictly above it,
together with the sample count.  With fewer samples no tail percentile
qualifies and only the median is reported.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Samples a tail percentile needs strictly beyond it to be reported.
TAIL_MIN_BEYOND = 10

#: Tail levels tried from the highest down.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def percentile(samples: Sequence[float], level: float) -> float:
    """The `level`-th percentile by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * level / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(level, value)`` of the highest percentile with at least
    :data:`TAIL_MIN_BEYOND` samples strictly above it, or ``None``."""
    for level in TAIL_LEVELS:
        value = percentile(samples, level)
        if sum(1 for s in samples if s > value) >= TAIL_MIN_BEYOND:
            return level, value
    return None


def describe(samples: Sequence[float]) -> str:
    """``median`` plus the reportable tail and the sample count."""
    text = f"median {statistics.median(samples):.6g}"
    found = tail(samples)
    if found is not None:
        text += f", p{found[0]:g} {found[1]:.6g}"
    return text + f" (n={len(samples)})"
