"""The benchmark's percentile convention.

Percentiles are nearest-rank: the p-th percentile of ``n`` samples is the
``ceil(p / 100 * n)``-th smallest.  A percentile is only *supported* when at
least :data:`MIN_BEYOND` samples lie strictly beyond its rank, so a p99 needs
1,000 samples and a p90 needs 100.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile's rank.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    # Round before ceil so 0.99 * 1000 = 990.0000000000001 stays rank 990.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile's rank."""
    return n - rank(n, p)


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting the ``p``-th percentile."""
    return n >= 1 and beyond(n, p) >= MIN_BEYOND


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
