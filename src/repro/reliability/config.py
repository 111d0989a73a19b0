"""Configuration and reporting of the checkpoint/recovery subsystem."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
        The barrier plan (:class:`~repro.reliability.faults.FaultPlan`):
        kills, planned departures and joins.  An empty plan keeps the
        pool static and injects nothing (checkpoints are still written —
        the steady-state overhead the recovery benchmark measures).
    """

    checkpoint_dir: Optional[str] = None
    cadence: str = "windows:1"
    faults: FaultPlan = FaultPlan()
    #: Virtual-time window between barriers of a reliable run.  ``None``
    #: inherits the run's steal quantum (64 bucket reads by default); a
    #: smaller window bounds lost work more tightly at the price of more
    #: coordination round trips — the same trade-off as the cadence, one
    #: level down.
    window_quantum_ms: Optional[float] = None

    def __post_init__(self) -> None:
        parse_cadence(self.cadence)  # fail fast on a bad spec
        if self.window_quantum_ms is not None and self.window_quantum_ms <= 0:
            raise ValueError("window_quantum_ms must be positive")

    def build_policy(self) -> CheckpointPolicy:
        """A fresh per-shard cadence policy instance."""
        return parse_cadence(self.cadence)


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
class ScaleRecord:
    """One executed departure or join, for reports and the elasticity experiment."""

    #: ``"down"`` or ``"up"``.
    kind: str
    worker_id: int
    window_index: int
    #: Departures only: queues migrated off the leaving shard.
    buckets_migrated: int = 0
    #: Departures only: queued entries carried by those queues.
    entries_migrated: int = 0


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


__all__ = ["RecoveryEvent", "ReliabilityConfig", "ReliabilityReport", "ScaleRecord"]
