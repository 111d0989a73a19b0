"""Fault tolerance: checkpoint/recovery under the parallel backends.

LifeRaft's batching makes shards pure functions of their admitted
schedules, so fault tolerance reduces to checkpointing queue-shaped state
at window barriers and replaying schedule tails.  This package provides:

* :mod:`repro.reliability.checkpoint` — the versioned, CRC-checked,
  store-generation-bound ``.lrcp`` codec plus shard state capture/restore;
* :mod:`repro.reliability.policy` — pluggable checkpoint cadences
  (every-K-windows, virtual-time interval);
* :mod:`repro.reliability.faults` — deterministic crash plans (``W@N`` specs);
* :mod:`repro.reliability.elastic` — planned scale-down/scale-up events
  executed at window barriers (elasticity as generalised recovery);
* :mod:`repro.reliability.runtime` — the channel coordinator: the one
  driver of message-passing shards, which with a reliability config also
  kills, detects, respawns and re-settles them on both execution backends;
* :mod:`repro.reliability.config` — :class:`ReliabilityConfig`, the knob
  :class:`~repro.sim.runspec.RunSpec.reliability` and the CLI expose, and the
  :class:`ReliabilityReport` every reliable run returns.
"""

from repro.reliability.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointError,
    CheckpointInfo,
    RunCheckpoint,
    ShardCheckpoint,
    capture_shard,
    checkpoint_worker,
    read_checkpoint,
    restore_shard,
    restore_worker,
    write_checkpoint,
)
from repro.reliability.config import RecoveryEvent, ReliabilityConfig, ReliabilityReport
from repro.reliability.elastic import ScaleDown, ScalePlan, ScaleRecord, ScaleUp
from repro.reliability.faults import CrashPoint, FaultPlan
from repro.reliability.policy import (
    CheckpointPolicy,
    EveryKWindows,
    VirtualInterval,
    parse_cadence,
)

__all__ = [
    "CHECKPOINT_SUFFIX",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointPolicy",
    "CrashPoint",
    "EveryKWindows",
    "FaultPlan",
    "RecoveryEvent",
    "ReliabilityConfig",
    "ReliabilityReport",
    "RunCheckpoint",
    "ScaleDown",
    "ScalePlan",
    "ScaleRecord",
    "ScaleUp",
    "ShardCheckpoint",
    "VirtualInterval",
    "capture_shard",
    "checkpoint_worker",
    "parse_cadence",
    "read_checkpoint",
    "restore_shard",
    "restore_worker",
    "write_checkpoint",
]
