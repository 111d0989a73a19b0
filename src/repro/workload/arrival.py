"""Arrival processes used to impose a workload saturation level.

The paper's Figure 8 sweeps "saturation" — the query arrival rate — from
0.1 to 0.5 queries per second and studies how the throughput/response-time
trade-off moves.  These classes assign arrival times to an existing trace;
the queries themselves are unchanged, so the same data-access pattern can
be replayed at different saturations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Protocol, Sequence

from repro.workload.query import CrossMatchQuery


class ArrivalProcess(Protocol):
    """Anything that can produce a monotone sequence of arrival times."""

    def arrival_times(self, count: int) -> List[float]:
        """Return *count* arrival times in seconds, non-decreasing."""
        ...


@dataclass
class PoissonArrivalProcess:
    """Memoryless arrivals at a fixed average rate (queries per second)."""

    rate_qps: float
    seed: int = 0
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("arrival rate must be positive")

    def arrival_times(self, count: int) -> List[float]:
        rng = random.Random(self.seed)
        times: List[float] = []
        now = self.start_time_s
        for _ in range(count):
            now += rng.expovariate(self.rate_qps)
            times.append(now)
        return times


@dataclass
class BurstyArrivalProcess:
    """ON/OFF arrivals: bursts at a high rate separated by quiet gaps.

    The paper motivates adaptivity with "bursty workloads with no steady
    state" (§6); this process exercises that case in the ablations.
    """

    burst_rate_qps: float
    burst_length: int
    gap_seconds: float
    seed: int = 0
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.burst_rate_qps <= 0:
            raise ValueError("burst rate must be positive")
        if self.burst_length <= 0:
            raise ValueError("burst length must be positive")
        if self.gap_seconds < 0:
            raise ValueError("gap must be non-negative")

    def arrival_times(self, count: int) -> List[float]:
        rng = random.Random(self.seed)
        times: List[float] = []
        now = self.start_time_s
        in_burst = 0
        for _ in range(count):
            if in_burst >= self.burst_length:
                now += self.gap_seconds
                in_burst = 0
            now += rng.expovariate(self.burst_rate_qps)
            times.append(now)
            in_burst += 1
        return times


def apply_arrival_times(
    queries: Sequence[CrossMatchQuery], process: ArrivalProcess
) -> List[CrossMatchQuery]:
    """Return copies of *queries* stamped with times from *process*.

    Query order is preserved: the i-th query receives the i-th arrival time.
    """
    times = process.arrival_times(len(queries))
    return [query.with_arrival_time(t) for query, t in zip(queries, times)]

