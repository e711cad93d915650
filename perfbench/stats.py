"""Order statistics the benchmark reports: medians, the tail rule, spreads."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES_BEYOND = 10


class Tail(NamedTuple):
    """A tail percentile: its level, its nearest-rank value and the samples above it."""

    percentile: int
    value: float
    beyond: int
    count: int


def tail_percentile(values: Sequence[float], beyond: int = TAIL_SAMPLES_BEYOND) -> Tail:
    """The highest whole percentile that still has ``beyond`` samples above it.

    Nearest-rank definition: percentile ``p`` of ``n`` samples is the sorted
    sample at rank ``ceil(p * n / 100)``.  The largest ``p`` whose rank leaves
    at least ``beyond`` samples above it is ``floor(100 * (n - beyond) / n)``;
    one percent more would leave fewer.  Needs ``n > beyond`` samples.
    """
    count = len(values)
    if count <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than "
                         f"{beyond} samples, got {count}")
    percentile = 100 * (count - beyond) // count
    rank = max(1, math.ceil(percentile * count / 100))
    return Tail(percentile, sorted(values)[rank - 1], count - rank, count)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (``statistics.quantiles`` quartiles)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median
