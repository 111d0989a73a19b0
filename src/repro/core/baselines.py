"""Baseline scheduling policies used in the paper's evaluation.

* :class:`NoShareScheduler` — "evaluates each query independently (no I/O
  is shared) and in arrival order" (§5).  The oldest incomplete query is
  serviced one bucket at a time with the cache bypassed, so every bucket
  visit pays the full sequential-read cost.
* :class:`RoundRobinScheduler` — "RR performs sequential batch processing
  by servicing buckets in HTM ID order.  It is oblivious to both the length
  of workload queues and age of requests" (§5).  It does share I/O: every
  service drains the chosen bucket's entire queue.
* :class:`IndexOnlyScheduler` — SkyQuery's existing approach, which
  "evaluates cross-match queries exclusively through spatial indices" and
  is reported to be about seven times slower than even NoShare (§5).
* :class:`LeastSharableFirstScheduler` — the policy of Agrawal et al. for
  shared file scans in Map-Reduce, discussed (and argued against for
  scientific workloads) in §6; included for the ablation benchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bucket_cache import BucketCacheManager
from repro.core.join_evaluator import JoinStrategy
from repro.core.metrics import CostModel
from repro.core.scheduler import (
    LifeRaftScheduler,
    SchedulerConfig,
    SchedulingPolicy,
    WorkItem,
)
from repro.core.workload_manager import WorkloadManager

#: Policy names accepted by :func:`make_policy`, the simulator and the CLI.
POLICY_NAMES = (
    "liferaft",
    "noshare",
    "round_robin",
    "index_only",
    "least_sharable_first",
)


def make_policy(
    name: str, alpha: float = 0.25, cost: Optional[CostModel] = None, normalize_metric: bool = True
) -> SchedulingPolicy:
    """Construct a scheduling policy by name.

    ``liferaft`` takes the age bias *alpha*; the baselines ignore it.  Every
    returned policy also supports ``clone()``, which is how the parallel
    worker pool builds one independent instance per shard.
    """
    cost = cost or CostModel.paper_defaults()
    if name == "liferaft":
        return LifeRaftScheduler(
            SchedulerConfig(alpha=alpha, cost=cost, normalize_metric=normalize_metric)
        )
    if name == "noshare":
        return NoShareScheduler()
    if name == "round_robin":
        return RoundRobinScheduler()
    if name == "index_only":
        return IndexOnlyScheduler()
    if name == "least_sharable_first":
        return LeastSharableFirstScheduler()
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


class NoShareScheduler:
    """Arrival-order, per-query execution with no I/O sharing."""

    name = "noshare"
    #: Join strategy every service is forced to (``None``: the evaluator's
    #: hybrid choice — NoShare is the same per-query scan-based execution,
    #: just without shared I/O).
    force_strategy: Optional[JoinStrategy] = None

    def clone(self) -> "NoShareScheduler":
        """A fresh, stateless copy (per-shard construction)."""
        return type(self)()

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        query_id = manager.oldest_pending_query()
        if query_id is None:
            return None
        remaining = manager.remaining_buckets_for(query_id)
        if not remaining:
            return None
        # Buckets are visited in HTM order within a query; every remaining
        # bucket still holds this query's entry (invariant of the manager).
        return WorkItem(
            bucket_index=min(remaining),
            query_ids=(query_id,),
            share_io=False,
            force_strategy=self.force_strategy,
        )


class IndexOnlyScheduler(NoShareScheduler):
    """Arrival-order execution through the spatial index only."""

    name = "index_only"
    force_strategy = JoinStrategy.INDEXED_JOIN


class RoundRobinScheduler:
    """Batch processing in HTM ID (bucket index) order, oblivious to queues."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = -1

    def clone(self) -> "RoundRobinScheduler":
        """A fresh copy with its own rotation cursor (per-shard construction)."""
        return RoundRobinScheduler()

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        pending = manager.pending_buckets()
        if not pending:
            return None
        pending.sort()
        # The next pending bucket strictly after the cursor, wrapping around;
        # requests "in the worst case wait an entire rotation" (§5.2).
        for bucket in pending:
            if bucket > self._cursor:
                self._cursor = bucket
                return WorkItem(bucket_index=bucket)
        self._cursor = pending[0]
        return WorkItem(bucket_index=pending[0])


class LeastSharableFirstScheduler:
    """Service the pending bucket with the *smallest* workload queue first.

    This inverts LifeRaft's most-contentious-data-first rule and mirrors
    the least-sharable-file-first policy of shared Map-Reduce scans: work
    that will not benefit from co-scheduling with future jobs is done
    first, letting contentious data accumulate even larger batches.  The §6
    discussion argues this is a poor fit when workload queues must be
    buffered in memory; the ablation benchmark quantifies that.
    """

    name = "least_sharable_first"

    def clone(self) -> "LeastSharableFirstScheduler":
        """A fresh, stateless copy (per-shard construction)."""
        return LeastSharableFirstScheduler()

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        pending = manager.pending_buckets()
        if not pending:
            return None
        best_bucket: Optional[int] = None
        best_key: Optional[tuple] = None
        for bucket in pending:
            key = (manager.queue_size(bucket), -manager.oldest_age_ms(bucket, now_ms), bucket)
            if best_key is None or key < best_key:
                best_key = key
                best_bucket = bucket
        assert best_bucket is not None
        return WorkItem(bucket_index=best_bucket)
