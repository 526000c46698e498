"""Order statistics shared by the workloads, the report and ``compare``."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = ["percentile", "quartiles", "summarize", "relative_spread"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    One sample has no spread: all three collapse onto it.
    """
    if len(samples) < 2:
        value = float(samples[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """Sample count, median and quartiles of one metric's samples."""
    q1, median, q3 = quartiles(samples)
    return {"n": len(samples), "q1": q1, "median": median, "q3": q3}


def relative_spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    A zero median has no share to take: identical quartiles spread 0,
    anything else without limit.
    """
    q1, median, q3 = quartiles(samples)
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")
