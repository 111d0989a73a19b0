"""Fault tolerance: checkpoint/recovery under the parallel backends.

LifeRaft's batching makes shards pure functions of their admitted
schedules, so fault tolerance reduces to checkpointing queue-shaped state
at window barriers and replaying schedule tails.  This package provides:

* :mod:`repro.reliability.checkpoint` — the versioned, CRC-checked,
  store-generation-bound ``.lrcp`` codec: one write and one read per shard
  (a run writes no other checkpoint file);
* :mod:`repro.reliability.policy` — pluggable checkpoint cadences
  (every-K-windows, virtual-time interval);
* :mod:`repro.reliability.faults` — the one barrier plan: kills
  (``W@N``), planned departures (``W@N:leave``) and joins (``@N:join``),
  each a fixed event at a window barrier (elasticity as generalised
  recovery);
* :mod:`repro.reliability.runtime` — the channel coordinator: the one
  driver of message-passing shards, which with a reliability config also
  kills, detects, respawns and catches them up on both execution backends;
* :mod:`repro.reliability.config` — :class:`ReliabilityConfig`, the knob
  :class:`~repro.sim.runspec.RunSpec.reliability` and the CLI expose, and the
  :class:`ReliabilityReport` every reliable run returns.
"""

from repro.reliability.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointInfo,
    ShardCheckpoint,
    checkpoint_shard,
    read_checkpoint,
    restore_shard,
    write_checkpoint,
)
from repro.reliability.config import (
    RecoveryEvent,
    ReliabilityConfig,
    ReliabilityReport,
    ScaleRecord,
)
from repro.reliability.faults import FaultEvent, FaultPlan
from repro.reliability.policy import (
    CheckpointPolicy,
    EveryKWindows,
    VirtualInterval,
    parse_cadence,
)

__all__ = [
    "CHECKPOINT_SUFFIX",
    "CheckpointInfo",
    "CheckpointPolicy",
    "EveryKWindows",
    "FaultEvent",
    "FaultPlan",
    "RecoveryEvent",
    "ReliabilityConfig",
    "ReliabilityReport",
    "ScaleRecord",
    "ShardCheckpoint",
    "VirtualInterval",
    "checkpoint_shard",
    "parse_cadence",
    "read_checkpoint",
    "restore_shard",
    "write_checkpoint",
]
