"""Sample statistics the harness reports: medians, the tail rule, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
#: A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), no numpy."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def tail(samples: Sequence[float]) -> Tuple[int, float]:
    """``(pct, value)`` for the highest of p50/p75/p90/p95/p99 that has at
    least ten samples beyond it: p75 at n=40, p90 at n=100, p99 at
    n=1000.  Below n=20 not even the median qualifies and the median is
    returned as its own tail, so ``pct == 50`` reads "no tail at this
    sample count", not "a short tail".
    """
    n = len(samples)
    chosen = 50
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            chosen = pct
    return chosen, percentile(samples, chosen)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness figure the benchmark contract is judged by
    (quartiles as ``statistics.quantiles(values, n=4)`` gives them)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf

