"""Elasticity experiment: planned scale-down/scale-up vs a static pool.

Beyond the paper's single-machine evaluation: the multi-level batching
that makes LifeRaft's shards pure functions of their schedules also makes
the worker pool *elastic* — a shard can leave at a window barrier by
evacuating its queues over the stealing seam, and a cold shard can join
and acquire work through ordinary steal rounds.  This experiment replays
one saturated trace through the reliability coordinator under a set of
scale plans (shrink, grow, shrink-then-grow) and reports:

* the **completion contract** — an elastic run completes exactly the
  queries the static run completes (the parity tests additionally pin the
  id-level set; cache-dependent totals like bucket reads legitimately
  shift when a queue is serviced by a different worker's cache);
* the **cost of the membership change** — queues and entries migrated at
  the departure barriers, and how the makespan moves as capacity shifts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentResult,
    build_simulator,
    build_trace,
    estimate_capacity_qps,
)
from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import Simulator
from repro.workload.generator import QueryTrace

#: Shards of the static baseline.
WORKERS = 3
#: The barrier plans on the experiment's x axis: (label, event specs).
PLAN_SWEEP: Tuple[Tuple[str, str], ...] = (
    ("static", ""),
    ("shrink 3->2", "1@2:leave"),
    ("grow 3->4", "@2:join"),
    ("shrink+grow", "1@2:leave,@4:join"),
)
#: What the elastic run must conserve exactly: every admitted query still
#: completes.  (Batch counts, bucket reads and busy/IO time legitimately
#: shift — a migrated queue is serviced through a different worker's
#: cache and batching; the integration tests pin the id-level set.)
CONSERVED_FIELDS = ("completed_queries",)
#: Window quantum in bucket reads: fine enough that the plans' windows
#: exist at every scale.
WINDOW_BUCKET_READS = 4.0
#: Replay rate as a multiple of serial capacity (service-bound run).
SATURATION_FACTOR = 8.0


def run(
    scale: str = "small",
    trace: Optional[QueryTrace] = None,
    simulator: Optional[Simulator] = None,
    plans: Sequence[Tuple[str, str]] = PLAN_SWEEP,
    backend: str = "virtual",
) -> ExperimentResult:
    """Compare elastic scale plans against a static pool on one trace."""
    simulator = simulator or build_simulator(scale)
    trace = trace or build_trace(scale, bucket_count=len(simulator.layout))
    capacity = estimate_capacity_qps(trace, simulator)
    saturation = capacity * SATURATION_FACTOR
    replayed = trace.with_saturation(saturation)
    quantum_ms = simulator.config.cost.tb_ms * WINDOW_BUCKET_READS

    static = None
    rows = []
    headline = {"saturation_qps": saturation, "workers": float(WORKERS)}
    for label, specs in plans:
        plan = FaultPlan.parse(specs)
        result = simulator.execute(
            replayed.queries,
            RunSpec(
                policy="liferaft",
                workers=WORKERS,
                label=label,
                backend=backend,
                reliability=ReliabilityConfig(
                    cadence="windows:2",
                    faults=plan,
                    window_quantum_ms=quantum_ms,
                ),
            ),
        )
        if static is None:
            static = result  # the sweep's first row is the baseline
        report = result.reliability
        assert report is not None
        conserved = all(
            getattr(result, field) == getattr(static, field)
            for field in CONSERVED_FIELDS
        )
        rows.append(
            (
                label,
                report.scale_downs,
                report.scale_ups,
                sum(event.buckets_migrated for event in report.scale_events),
                sum(event.entries_migrated for event in report.scale_events),
                result.completed_queries,
                f"{result.makespan_s:.1f}",
                "yes" if conserved else "NO",
            )
        )
        if plan:
            headline[f"makespan_{label.replace(' ', '_').replace('->', 'to')}_s"] = (
                result.makespan_s
            )
        else:
            headline["makespan_static_s"] = result.makespan_s
    return ExperimentResult(
        name="elasticity",
        title=f"Planned scale-down/scale-up vs a static pool ({backend} backend)",
        paper_expectation=(
            "beyond the paper: schedule-pure shards make the pool elastic — "
            "a departing shard evacuates its queues over the stealing seam "
            "and a joining shard steals its way to work, while the run "
            "completes exactly the static run's query set; makespan tracks "
            "the capacity change"
        ),
        headers=(
            "plan",
            "downs",
            "ups",
            "buckets moved",
            "entries moved",
            "completed",
            "makespan (s)",
            "conserved",
        ),
        rows=rows,
        headline=headline,
        notes=(
            f"{WORKERS} shard workers, window quantum "
            f"{WINDOW_BUCKET_READS:g} bucket reads, stealing on; trace "
            f"replayed at {SATURATION_FACTOR:g}x serial capacity; "
            "a departure is W@N:leave, a join @N:join"
        ),
    )
