"""Order statistics used to summarise latencies and run-to-run spread."""

from __future__ import annotations

import statistics
from typing import Sequence

# A percentile is only reported when at least this many samples lie above it.
MIN_TAIL_SAMPLES = 10


def per_op_medians(cycles: Sequence[Sequence[float]]) -> list[float]:
    """Each op's median latency over cycles that run the same ops in the same order."""
    return [statistics.median(column) for column in zip(*cycles)]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: int) -> int:
    """How many of `count` samples rank strictly above the q-th percentile."""
    if count < 0 or not 0 <= q <= 100:
        raise ValueError(f"bad arguments count={count} q={q}")
    # integer arithmetic: count * (1 - q/100) in floats gives 9.999... for 100, 90
    return count * (100 - q) // 100


def tail_percentile(count: int, candidates: Sequence[int] = (99, 90)) -> int | None:
    """The highest candidate percentile with at least MIN_TAIL_SAMPLES beyond it."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= MIN_TAIL_SAMPLES:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
