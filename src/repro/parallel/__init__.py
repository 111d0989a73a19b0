"""Parallel multi-worker execution of the LifeRaft engine.

The serial :class:`~repro.core.engine.LifeRaftEngine` services one bucket
batch at a time; this package shards bucket ownership across N simulated
workers so the same data-driven scheduling policy runs on every shard
concurrently (in virtual time):

* :mod:`repro.parallel.sharding` — deterministic bucket → worker
  assignment (round-robin or zone-contiguous along the HTM curve);
* :mod:`repro.parallel.worker` — what a shard is fed: its staged arrival
  shares and its clone of the scheduling policy;
* :mod:`repro.parallel.engine` — what the shards add up to: the
  cross-shard :class:`~repro.parallel.engine.CompletionTracker` and the
  one merge of per-worker accounting into an
  :class:`~repro.core.engine.EngineReport`;
* :mod:`repro.parallel.ipc` — the shard itself, :class:`ShardWorker` (a
  private bucket cache, hybrid join evaluator, scheduler instance and
  virtual clock, answering the shard message protocol in one place), the
  protocol's messages, and the worker processes that can host a shard;
* :mod:`repro.parallel.backend` — the run description
  (:class:`ParallelRunSpec`), the names of the execution backends
  (:data:`BACKENDS`) and the coordinator's pure bookkeeping (arrival
  fan-out, shard views, the steal rule).  Every sharded run is the one
  channel coordinator (:class:`repro.reliability.runtime.ShardCoordinator`:
  windowed virtual time, work stealing as message passing at the barriers)
  over the channel kind its backend names: ``"virtual"`` keeps every
  shard in-process (the default for tests), ``"process"`` gives each its
  own OS process (``multiprocessing``, spawn-safe).  Either returns one
  :class:`BackendOutcome`: the merged report, the shards' own results,
  the steal records and the service log, each fact recorded once.

Everything above the :class:`~repro.core.engine.ServiceLoop` is topology,
everything below is unchanged engine code, and the topology has one
driver — which is what makes the two backends produce identical
virtual-clock results, steals included (the cross-backend parity tests
pin this down).
"""

from repro.parallel.backend import BACKENDS, BackendOutcome, ParallelRunSpec
from repro.parallel.ipc import ShardWorker, shutdown_workers
from repro.parallel.sharding import (
    SHARD_STRATEGIES,
    ShardPlan,
    make_shard_plan,
    partition_round_robin,
    partition_zones,
)

__all__ = [
    "BACKENDS",
    "SHARD_STRATEGIES",
    "BackendOutcome",
    "ParallelRunSpec",
    "ShardPlan",
    "ShardWorker",
    "make_shard_plan",
    "partition_round_robin",
    "partition_zones",
    "shutdown_workers",
]
