"""Figure 8: throughput/response-time trade-offs across workload saturation.

The paper sweeps the arrival rate (0.1 – 0.5 queries/second on their
hardware) and, for each saturation, the age bias α.  Figure 8(a) shows the
throughput gap between the α values widening as saturation grows; Figure
8(b) shows how response time moves, which is what drives the adaptive
choice of α (increase α at low saturation, keep it small when saturated).
Each row reports the 95th-percentile and the largest response beside the
mean, since α trades the mean against the tail of starved queries.

Because the reproduction's absolute capacity differs from the paper's
testbed, the sweep is expressed as multiples of the greedy scheduler's
measured capacity, spanning the same under-saturated to over-saturated
range as the paper's 0.1 – 0.5 q/s sweep spans relative to its ~0.22 q/s
peak throughput.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    build_simulator,
    build_trace,
    estimate_capacity_qps,
)
from repro.sim.runspec import RunSpec
from repro.sim.simulator import Simulator
from repro.workload.generator import QueryTrace

#: α values swept at each saturation, matching the figure's legend.
ALPHA_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Saturation levels as fractions of the greedy scheduler's capacity.  The
#: paper's 0.1/0.13/0.17/0.25/0.5 q/s correspond to roughly 0.45x – 2.3x of
#: its ~0.22 q/s peak throughput.
DEFAULT_CAPACITY_FRACTIONS = (0.45, 0.6, 0.8, 1.1, 2.2)


def run(
    scale: str = "small",
    trace: Optional[QueryTrace] = None,
    simulator: Optional[Simulator] = None,
    capacity_fractions: Sequence[float] = DEFAULT_CAPACITY_FRACTIONS,
    alphas: Sequence[float] = ALPHA_SWEEP,
) -> ExperimentResult:
    """Reproduce the saturation sweep of Figure 8 (both panels)."""
    trace = trace or build_trace(scale)
    simulator = simulator or build_simulator(scale)
    capacity = estimate_capacity_qps(trace, simulator)

    rows: List[Sequence[object]] = []
    throughput_gap_low = throughput_gap_high = 0.0
    for fraction in capacity_fractions:
        saturation = capacity * fraction
        replayed = trace.with_saturation(saturation)
        per_alpha = {}
        for alpha in alphas:
            result = simulator.execute(
                replayed.queries,
                RunSpec(
                    policy="liferaft",
                    alpha=alpha,
                    label=f"sat={saturation:.3f},alpha={alpha:g}",
                    saturation_qps=saturation,
                ),
            )
            per_alpha[alpha] = result
            rows.append(
                (
                    fraction,
                    saturation,
                    alpha,
                    result.throughput_qps,
                    result.avg_response_time_s,
                    result.response_stats.p95_s,
                    result.response_stats.maximum_s,
                    result.cache_hit_rate,
                )
            )
        gap = (
            per_alpha[min(alphas)].throughput_qps - per_alpha[max(alphas)].throughput_qps
        )
        if fraction == min(capacity_fractions):
            throughput_gap_low = gap
        if fraction == max(capacity_fractions):
            throughput_gap_high = gap

    return ExperimentResult(
        name="figure8",
        title="Throughput and response time vs. workload saturation, per age bias",
        paper_expectation=(
            "the throughput gap between alpha values widens as saturation grows; "
            "response-time differences guide the choice of alpha per saturation"
        ),
        headers=(
            "capacity fraction",
            "saturation (q/s)",
            "alpha",
            "throughput (q/s)",
            "avg response (s)",
            "p95 response (s)",
            "max response (s)",
            "cache hit rate",
        ),
        rows=rows,
        headline={
            "greedy_capacity_qps": capacity,
            "throughput_gap_at_lowest_saturation": throughput_gap_low,
            "throughput_gap_at_highest_saturation": throughput_gap_high,
        },
        notes="saturations are expressed relative to the greedy scheduler's capacity",
    )
