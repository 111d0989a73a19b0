"""Recovery experiment: lost work and recovery latency vs checkpoint cadence.

Beyond the paper's single-machine evaluation: once shard workers run on
real (unreliable) hardware, the checkpoint cadence becomes a first-class
operating knob.  This experiment replays one saturated trace through the
reliability coordinator under a deterministic crash plan, sweeping the
cadence from every-window to sparse and a virtual-time interval, and
reports the two costs the cadence trades against each other:

* **steady-state overhead** — checkpoints written, bytes, real seconds
  spent capturing and writing them;
* **crash cost** — bucket services re-executed after each recovery (the
  lost work a sparser cadence exposes) and the real recovery latency.

Every row also re-verifies the headline invariant: the crash-injected
run's virtual-clock totals are identical to an uninterrupted run's, at
every cadence.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    build_simulator,
    build_trace,
    estimate_capacity_qps,
)
from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS, Simulator
from repro.telemetry.registry import metric_value
from repro.workload.generator import QueryTrace

#: Cadences on the experiment's x axis (finest to sparsest, then a
#: virtual-time interval roughly equal to four windows).
CADENCE_SWEEP = ("windows:1", "windows:2", "windows:4", "windows:8", "interval:19200")
#: Shards of the crash-injected run.
WORKERS = 2
#: Deterministic crash plan: the same kills at every cadence.
CRASH_PLAN = "1@2,0@5"
#: Window quantum in bucket reads: fine enough that the plan's windows
#: exist at every scale.
WINDOW_BUCKET_READS = 4.0
#: Replay rate as a multiple of serial capacity (service-bound run).
SATURATION_FACTOR = 8.0


def run(
    scale: str = "small",
    trace: Optional[QueryTrace] = None,
    simulator: Optional[Simulator] = None,
    cadences: Sequence[str] = CADENCE_SWEEP,
    backend: str = "virtual",
) -> ExperimentResult:
    """Sweep the checkpoint cadence under a fixed deterministic crash plan."""
    simulator = simulator or build_simulator(scale)
    trace = trace or build_trace(scale, bucket_count=len(simulator.layout))
    capacity = estimate_capacity_qps(trace, simulator)
    saturation = capacity * SATURATION_FACTOR
    replayed = trace.with_saturation(saturation)
    quantum_ms = simulator.config.cost.tb_ms * WINDOW_BUCKET_READS

    clean = simulator.execute(
        replayed.queries,
        RunSpec(
            policy="liferaft",
            workers=WORKERS,
            enable_stealing=False,
            label="clean",
            backend=backend,
        ),
    )

    rows = []
    headline = {
        "saturation_qps": saturation,
        "crashes_per_run": float(len(FaultPlan.parse(CRASH_PLAN))),
    }
    for cadence in cadences:
        config = ReliabilityConfig(
            cadence=cadence,
            faults=FaultPlan.parse(CRASH_PLAN),
            window_quantum_ms=quantum_ms,
        )
        result = simulator.execute(
            replayed.queries,
            RunSpec(
                policy="liferaft",
                workers=WORKERS,
                enable_stealing=False,
                label=f"cadence={cadence}",
                backend=backend,
                reliability=config,
            ),
        )
        report = result.reliability
        assert report is not None
        parity = all(
            getattr(result, field) == getattr(clean, field)
            for field in VIRTUAL_CLOCK_PARITY_FIELDS
        )
        rows.append(
            (
                cadence,
                report.checkpoints_written,
                report.checkpoint_bytes / 1024.0,
                report.checkpoint_real_s,
                report.recovery_count,
                report.services_replayed,
                report.recovery_real_s,
                metric_value(result.telemetry, "coordinator.boot_s"),
                "yes" if parity else "NO",
            )
        )
    if rows:
        headline["lost_services_finest"] = float(rows[0][5])
        headline["lost_services_sparsest"] = float(rows[-1][5])
        headline["checkpoint_s_finest"] = float(rows[0][3])
    return ExperimentResult(
        name="recovery",
        title=f"Checkpoint cadence vs lost work and recovery latency ({backend} backend)",
        paper_expectation=(
            "beyond the paper: finer checkpoint cadences bound the work a "
            "crash loses (fewer services re-executed) at the price of more "
            "checkpoint I/O; virtual-clock results are identical to an "
            "uninterrupted run at every cadence"
        ),
        headers=(
            "cadence",
            "checkpoints",
            "ckpt KiB",
            "ckpt real (s)",
            "recoveries",
            "services replayed",
            "recovery real (s)",
            "boot (s)",
            "parity",
        ),
        rows=rows,
        headline=headline,
        notes=(
            f"{WORKERS} shard workers, crash plan {CRASH_PLAN} (worker@window), "
            f"window quantum {WINDOW_BUCKET_READS:g} bucket reads, stealing off; "
            f"trace replayed at {SATURATION_FACTOR:g}x serial capacity; on the "
            "process backend the clean run boots the workers, so a row's boot "
            "seconds are its respawns alone (part of its recovery seconds)"
        ),
    )
