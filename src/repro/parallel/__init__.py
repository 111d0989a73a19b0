"""Parallel multi-worker execution of the LifeRaft engine.

The serial :class:`~repro.core.engine.LifeRaftEngine` services one bucket
batch at a time; this package shards bucket ownership across N simulated
workers so the same data-driven scheduling policy runs on every shard
concurrently (in virtual time):

* :mod:`repro.parallel.sharding` — deterministic bucket → worker
  assignment (round-robin or zone-contiguous along the HTM curve);
* :mod:`repro.parallel.worker` — one :class:`ShardWorker` per shard, each
  owning a private bucket cache, hybrid join evaluator, scheduler instance
  and virtual clock;
* :mod:`repro.parallel.engine` — the :class:`ParallelEngine` that fans
  queries out through the shared pre-processor, repeatedly services the
  earliest-clock worker, steals the oldest starving bucket queue for idle
  workers, and merges per-worker accounting into one
  :class:`~repro.core.engine.EngineReport`;
* :mod:`repro.parallel.backend` — the :class:`ExecutionBackend` seam over
  the shard plan: :class:`VirtualBackend` (the deterministic in-process
  interleaver, default for tests) and :class:`ProcessBackend` (one OS
  process per shard via ``multiprocessing``, spawn-safe, with work
  stealing as message passing);
* :mod:`repro.parallel.ipc` — the pickled message protocol and the
  per-shard replayer the worker processes run.

Everything above the :class:`~repro.core.engine.ServiceLoop` is topology,
everything below is unchanged engine code — which is what makes the two
backends produce identical virtual-clock results (the cross-backend
parity tests pin this down).
"""

from repro.parallel.backend import (
    EXECUTION_BACKENDS,
    BackendOutcome,
    ExecutionBackend,
    ParallelRunSpec,
    ProcessBackend,
    VirtualBackend,
    make_backend,
)
from repro.parallel.engine import ParallelEngine, ParallelReport
from repro.parallel.ipc import shutdown_workers
from repro.parallel.sharding import (
    SHARD_STRATEGIES,
    ShardPlan,
    make_shard_plan,
    partition_round_robin,
    partition_zones,
)
from repro.parallel.worker import ShardWorker, WorkerPool

__all__ = [
    "EXECUTION_BACKENDS",
    "SHARD_STRATEGIES",
    "BackendOutcome",
    "ExecutionBackend",
    "ParallelEngine",
    "ParallelReport",
    "ParallelRunSpec",
    "ProcessBackend",
    "ShardPlan",
    "ShardWorker",
    "VirtualBackend",
    "WorkerPool",
    "make_backend",
    "make_shard_plan",
    "partition_round_robin",
    "partition_zones",
    "shutdown_workers",
]
