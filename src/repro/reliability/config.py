"""Configuration and reporting of the checkpoint/recovery subsystem."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.reliability.elastic import ScalePlan, ScaleRecord
from repro.reliability.faults import FaultPlan
from repro.reliability.policy import CheckpointPolicy, parse_cadence


@dataclass(frozen=True)
class ReliabilityConfig:
    """Turns checkpoint/recovery on for one parallel run.

    Attributes
    ----------
    checkpoint_dir:
        Directory the ``.lrcp`` files are written to.  ``None`` uses a
        private temporary directory that is removed when the run ends
        (checkpoints are then pure crash insurance, not artifacts).
    cadence:
        Checkpoint cadence spec — ``"windows:K"`` or ``"interval:MS"``
        (see :func:`repro.reliability.policy.parse_cadence`).  Each shard
        gets its own policy instance built from this spec.
    faults:
        Deterministic crash plan; ``None`` injects nothing (checkpoints
        are still written — the steady-state overhead the recovery
        benchmark measures).
    scale:
        Planned elasticity: :class:`~repro.reliability.elastic.ScalePlan`
        scale-down/scale-up events executed at window barriers; ``None``
        keeps the worker pool static.
    max_recoveries_per_worker:
        Hard cap on recoveries of one shard before the run is declared
        lost (guards against a crash loop in a broken environment).
    """

    checkpoint_dir: Optional[str] = None
    cadence: str = "windows:1"
    faults: Optional[FaultPlan] = None
    scale: Optional[ScalePlan] = None
    max_recoveries_per_worker: int = 8
    #: Virtual-time window between barriers of a reliable run.  ``None``
    #: inherits the run's steal quantum (64 bucket reads by default); a
    #: smaller window bounds lost work more tightly at the price of more
    #: coordination round trips — the same trade-off as the cadence, one
    #: level down.
    window_quantum_ms: Optional[float] = None

    def __post_init__(self) -> None:
        parse_cadence(self.cadence)  # fail fast on a bad spec
        if self.max_recoveries_per_worker <= 0:
            raise ValueError("max_recoveries_per_worker must be positive")
        if self.window_quantum_ms is not None and self.window_quantum_ms <= 0:
            raise ValueError("window_quantum_ms must be positive")

    def build_policy(self) -> CheckpointPolicy:
        """A fresh per-shard cadence policy instance."""
        return parse_cadence(self.cadence)

    def fault_plan(self) -> FaultPlan:
        """The crash plan (empty when no faults are configured)."""
        return self.faults if self.faults is not None else FaultPlan()

    def scale_plan(self) -> ScalePlan:
        """The elasticity plan (empty when the pool is static)."""
        return self.scale if self.scale is not None else ScalePlan()

    def validate(self, workers: int, enable_stealing: bool) -> None:
        """Check the fault and scale plans against a run of *workers* shards.

        The scale plan must be executable from that pool, a scale-up needs
        stealing, and every crash point must target a worker the run has.
        """
        scale = self.scale_plan()
        scale.validate(workers)
        if scale.total_ups() and not enable_stealing:
            raise ValueError(
                "scale-up events need work stealing enabled: a joining "
                "worker has an empty arrival schedule and acquires work "
                "only through steal rounds"
            )
        pool = workers + scale.total_ups()
        for point in self.fault_plan().crashes:
            if point.worker_id >= pool:
                raise ValueError(
                    f"crash point {point.spec} targets worker {point.worker_id}, "
                    f"but the run has workers 0..{pool - 1} "
                    "(worker ids are 0-based; scale-ups take sequential ids)"
                )


@dataclass
class RecoveryEvent:
    """One completed recovery, for reports and the recovery experiment."""

    worker_id: int
    window_index: int
    #: Window the restored checkpoint was captured at (-1: cold restart).
    checkpoint_window: int
    #: Batch records discarded and re-executed (the lost work).
    services_replayed: int
    #: Real seconds from crash detection to the shard being runnable again.
    real_latency_s: float


@dataclass
class ReliabilityReport:
    """What the checkpoint/recovery machinery did during one run."""

    checkpoint_dir: str
    cadence: str
    windows: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    #: Real seconds spent capturing + writing checkpoint files.
    checkpoint_real_s: float = 0.0
    crashes_injected: int = 0
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    #: Executed scale-down/scale-up events, in barrier order.
    scale_events: List[ScaleRecord] = field(default_factory=list)
    #: Every per-shard checkpoint written, in capture order
    #: (:class:`~repro.parallel.ipc.CheckpointWritten` records) — the
    #: trace exporter renders these as timeline instants.
    checkpoint_marks: List[object] = field(default_factory=list)

    @property
    def recovery_count(self) -> int:
        """Number of completed recoveries."""
        return len(self.recoveries)

    @property
    def services_replayed(self) -> int:
        """Total bucket services re-executed across all recoveries."""
        return sum(event.services_replayed for event in self.recoveries)

    @property
    def recovery_real_s(self) -> float:
        """Total real seconds spent detecting crashes and restoring shards."""
        return sum(event.real_latency_s for event in self.recoveries)

    @property
    def scale_downs(self) -> int:
        """Number of executed planned departures."""
        return sum(1 for event in self.scale_events if event.kind == "down")

    @property
    def scale_ups(self) -> int:
        """Number of executed planned joins."""
        return sum(1 for event in self.scale_events if event.kind == "up")

    def describe(self) -> Dict[str, float]:
        """Flat summary for tables and the CLI."""
        return {
            "windows": float(self.windows),
            "checkpoints": float(self.checkpoints_written),
            "checkpoint_kb": self.checkpoint_bytes / 1024.0,
            "checkpoint_real_s": self.checkpoint_real_s,
            "crashes": float(self.crashes_injected),
            "recoveries": float(self.recovery_count),
            "services_replayed": float(self.services_replayed),
            "recovery_real_s": self.recovery_real_s,
            "scale_downs": float(self.scale_downs),
            "scale_ups": float(self.scale_ups),
        }


__all__ = ["RecoveryEvent", "ReliabilityConfig", "ReliabilityReport"]
