"""Response-time and throughput statistics.

The paper reports average response time, its coefficient of variance
(Figure 7b) and query throughput (completed queries per second).  These
helpers compute those summaries from raw per-query response times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class ResponseTimeStats:
    """Summary statistics over a set of response times (seconds)."""

    count: int
    mean_s: float
    std_s: float
    minimum_s: float
    maximum_s: float
    median_s: float
    p95_s: float

    @property
    def coefficient_of_variance(self) -> float:
        """Standard deviation divided by the mean (Figure 7b's second series)."""
        if self.mean_s == 0:
            return 0.0
        return self.std_s / self.mean_s


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


def summarize_response_times(response_times_s: Iterable[float]) -> ResponseTimeStats:
    """Compute :class:`ResponseTimeStats` from raw response times in seconds."""
    values: List[float] = sorted(response_times_s)
    if not values:
        return ResponseTimeStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(values)
    mean = sum(values) / count
    variance = sum((v - mean) ** 2 for v in values) / count
    return ResponseTimeStats(
        count=count,
        mean_s=mean,
        std_s=math.sqrt(variance),
        minimum_s=values[0],
        maximum_s=values[-1],
        median_s=_percentile(values, 0.5),
        p95_s=_percentile(values, 0.95),
    )
