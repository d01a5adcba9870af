"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(values: Sequence[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest integer percentile with at least `beyond` samples
    ranked above it, as (p, value); None when there are too few samples."""
    n = len(values)
    for p in range(99, 0, -1):
        if n - 1 - math.floor((n - 1) * p / 100) >= beyond:
            return p, percentile(values, p)
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def summary(values: Sequence[float]) -> dict:
    """Median, sample count and tail percentile of one timing."""
    tail = tail_percentile(values)
    return {
        "median": median(values),
        "samples": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }
