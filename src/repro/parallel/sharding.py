"""Deterministic bucket → worker assignment.

Two strategies partition the :class:`~repro.storage.partitioner.PartitionLayout`
bucket range across N workers:

* **round_robin** — bucket *i* belongs to worker ``i % N``.  Spreads hot
  regions (which are contiguous along the HTM curve) across all workers,
  at the price of splitting a query's contiguous span over many shards.
* **zone** — contiguous zones of the HTM curve, cut so every zone carries
  roughly the same object population.  Preserves the spatial locality the
  bucket cache feeds on: a query's span usually lands on one or two
  shards.

Both are pure functions of the layout and the worker count, so the same
inputs always produce the same assignment — a property the determinism
tests pin down, and a prerequisite for reproducible parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.storage.partitioner import PartitionLayout


@dataclass(frozen=True)
class ShardPlan:
    """An immutable bucket → worker assignment over one layout.

    Attributes
    ----------
    strategy:
        Name of the strategy that produced the plan.
    worker_count:
        Number of shards.
    owners:
        ``owners[bucket_index]`` is the owning worker id.
    """

    strategy: str
    worker_count: int
    owners: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.worker_count <= 0:
            raise ValueError("worker_count must be positive")
        bad = [o for o in self.owners if not 0 <= o < self.worker_count]
        if bad:
            raise ValueError(f"owner ids out of range: {sorted(set(bad))[:5]}")

    def owner_of(self, bucket_index: int) -> int:
        """The worker owning *bucket_index*."""
        return self.owners[bucket_index]

    def bucket_counts(self) -> List[int]:
        """Number of buckets owned by each worker."""
        counts = [0] * self.worker_count
        for owner in self.owners:
            counts[owner] += 1
        return counts

    def describe(self) -> Dict[str, float]:
        """Balance statistics used by tests and reports."""
        counts = self.bucket_counts()
        return {
            "worker_count": float(self.worker_count),
            "bucket_count": float(len(self.owners)),
            "min_buckets": float(min(counts)),
            "max_buckets": float(max(counts)),
        }


def partition_round_robin(layout: PartitionLayout, workers: int) -> ShardPlan:
    """Bucket *i* → worker ``i % workers``."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    owners = tuple(index % workers for index in range(len(layout)))
    return ShardPlan("round_robin", workers, owners)


def partition_zones(layout: PartitionLayout, workers: int) -> ShardPlan:
    """Contiguous zones balanced by object population.

    Buckets are walked in curve order; a zone closes once it has
    accumulated its fair share ``total_objects / workers`` of the catalog
    (leaving enough buckets for the remaining zones, so every worker owns
    at least one bucket when ``workers <= len(layout)``).
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    bucket_count = len(layout)
    if workers > bucket_count:
        raise ValueError(
            f"cannot cut {bucket_count} buckets into {workers} non-empty zones"
        )
    total_objects = layout.total_objects()
    target = total_objects / workers if total_objects else 0.0
    owners: List[int] = []
    zone = 0
    accumulated = 0.0
    for index, bucket in enumerate(layout):
        owners.append(zone)
        accumulated += bucket.object_count
        remaining_buckets = bucket_count - index - 1
        remaining_zones = workers - zone - 1
        if (
            remaining_zones > 0
            and (accumulated >= target * (zone + 1) or remaining_buckets == remaining_zones)
        ):
            zone += 1
    return ShardPlan("zone", workers, tuple(owners))


#: Registry of shard strategies by name.
SHARD_STRATEGIES: Dict[str, Callable[[PartitionLayout, int], ShardPlan]] = {
    "round_robin": partition_round_robin,
    "zone": partition_zones,
}


def make_shard_plan(
    layout: PartitionLayout, workers: int, strategy: str = "round_robin"
) -> ShardPlan:
    """Build a shard plan by strategy name."""
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; available: {sorted(SHARD_STRATEGIES)}"
        )
    return SHARD_STRATEGIES[strategy](layout, workers)
