"""Shard workers: one service lane per shard of the bucket range.

A :class:`ShardWorker` wraps a :class:`~repro.core.engine.ServiceLoop`
(its own workload manager, scheduler instance, LRU bucket cache and hybrid
join evaluator) with a private virtual clock.  Workers advance
independently, exactly as N independent servers would.

Arrivals reach a worker *staged* (:meth:`ShardWorker.stage`,
:meth:`ShardWorker.ingest_due`): each per-bucket share is held until the
worker's own clock reaches its arrival time.  Staging makes a worker's
whole execution a pure function of its arrival schedule — no global state
leaks into local decisions — which is the property that lets the shard's
timeline (:class:`repro.parallel.ipc.ShardReplayer`) come out the same
in-process and in an OS process.

Every worker gets a *clone* of the scheduling-policy prototype
(:func:`clone_policy`: decision counters and adaptive state are per-lane)
and its own cache over the bucket store, mirroring N servers with private
buffer pools over one storage backend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Tuple

from repro.core.engine import BatchResult, EngineConfig, ServiceLoop, build_service_loop
from repro.core.scheduler import SchedulingPolicy
from repro.storage.bucket_store import BucketStore
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import PartitionLayout

#: Slack used when comparing virtual timestamps, matching the arrival
#: delivery slack of the serial simulator loop.
TIME_EPS = 1e-9


@dataclass(frozen=True)
class StagedShare:
    """One query's pending work for one bucket, awaiting its arrival time.

    Shares are staged per bucket (not per query) so that work stealing can
    re-route the not-yet-ingested remainder of a migrated bucket without
    touching the query's shares for other buckets.
    """

    arrival_ms: float
    query_id: int
    bucket_index: int
    payload: object  # an int object count or a tuple of CrossMatchObject


class ShardWorker:
    """One simulated worker: a service loop plus a private virtual clock."""

    def __init__(self, worker_id: int, loop: ServiceLoop) -> None:
        self.worker_id = worker_id
        self.loop = loop
        self.now_ms = 0.0
        #: Arrivals not yet on the worker's timeline, in arrival order.
        self._staged: Deque[StagedShare] = deque()

    # -- convenience pass-throughs -------------------------------------- #

    @property
    def manager(self):
        """The worker's private workload manager."""
        return self.loop.manager

    @property
    def cache(self):
        """The worker's private bucket cache."""
        return self.loop.cache

    def has_pending_work(self) -> bool:
        """``True`` while this shard's queues are non-empty."""
        return self.loop.has_pending_work()

    def pending_buckets(self) -> List[int]:
        """Buckets with pending work on this shard."""
        return self.loop.manager.pending_buckets()

    # -- staged arrivals ------------------------------------------------- #

    def stage(self, share: StagedShare) -> None:
        """Queue a per-bucket share for timed ingestion.

        Callers must stage shares in non-decreasing arrival order (the
        coordinator's fan-out walks the trace sorted by timestamp).
        """
        self._staged.append(share)

    def stage_merged(self, shares: Iterable[StagedShare]) -> None:
        """Merge re-routed shares (from a stolen bucket) into the stage.

        Both the existing stage and *shares* are sorted by arrival time, so
        a single linear merge keeps the deque ordered.
        """
        merged: List[StagedShare] = []
        incoming = deque(sorted(shares, key=lambda s: (s.arrival_ms, s.query_id)))
        while self._staged and incoming:
            if self._staged[0].arrival_ms <= incoming[0].arrival_ms:
                merged.append(self._staged.popleft())
            else:
                merged.append(incoming.popleft())
        merged.extend(self._staged)
        merged.extend(incoming)
        self._staged = deque(merged)

    def extract_staged(self, bucket_index: int) -> List[StagedShare]:
        """Remove and return the staged shares targeting *bucket_index*.

        Work stealing calls this on the victim so future arrivals follow
        the migrated queue instead of splitting the bucket across shards.
        """
        taken = [s for s in self._staged if s.bucket_index == bucket_index]
        if taken:
            self._staged = deque(
                s for s in self._staged if s.bucket_index != bucket_index
            )
        return taken

    def staged_shares(self) -> Tuple[StagedShare, ...]:
        """The not-yet-ingested stage, in arrival order (checkpoint capture)."""
        return tuple(self._staged)

    def restore_staged(self, shares: Iterable[StagedShare]) -> None:
        """Replace the stage wholesale (checkpoint restore).

        The incoming shares are a stage captured by :meth:`staged_shares`,
        so they are already in arrival order.
        """
        self._staged = deque(shares)

    def next_staged_ms(self) -> Optional[float]:
        """Arrival time of the earliest staged share, or ``None``."""
        if not self._staged:
            return None
        return self._staged[0].arrival_ms

    def has_staged(self) -> bool:
        """``True`` while any share awaits ingestion."""
        return bool(self._staged)

    def ingest_due(self) -> None:
        """Move every share whose arrival time has been reached into the
        workload manager, exactly as the serial replay loop delivers
        arrivals at or before the current clock."""
        while self._staged and self._staged[0].arrival_ms <= self.now_ms + TIME_EPS:
            share = self._staged.popleft()
            self.manager.add_query(
                share.query_id,
                {share.bucket_index: share.payload},
                share.arrival_ms,
                merge=True,
            )

    # -- execution ------------------------------------------------------- #

    def jump_to(self, time_ms: float) -> None:
        """Advance an idle worker's clock to the next arrival time."""
        self.now_ms = max(self.now_ms, time_ms)

    def service_next(self) -> Optional[BatchResult]:
        """Run one bucket service at this worker's clock, advancing it."""
        result = self.loop.service_next(self.now_ms)
        if result is not None:
            self.now_ms = result.finished_at_ms
        return result


def build_shard_worker(
    worker_id: int,
    layout: PartitionLayout,
    store: BucketStore,
    policy: SchedulingPolicy,
    config: EngineConfig,
    index: Optional[SpatialIndex] = None,
) -> ShardWorker:
    """Assemble one shard worker: a service loop over *store* plus a clock.

    The one construction recipe: every shard, in-process or in a worker
    process, is built here after its store snapshot is restored.
    """
    loop = build_service_loop(layout, store, policy, config, index=index, shard=worker_id)
    return ShardWorker(worker_id, loop)


def clone_policy(prototype: SchedulingPolicy, worker_id: int) -> SchedulingPolicy:
    """Per-shard scheduler: clone the prototype (worker 0 may reuse it).

    Worker 0 keeps the prototype itself so a single-worker pool behaves
    bit-for-bit like the serial engine built around the same instance.
    The coordinator builds every shard's policy through it.
    """
    if worker_id == 0:
        return prototype
    clone = getattr(prototype, "clone", None)
    if clone is None:
        raise TypeError(
            f"policy {prototype!r} does not support clone(); "
            "per-shard schedulers must be constructible per worker"
        )
    return clone()
