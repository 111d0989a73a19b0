"""Reference implementation of the LifeRaft decision: score every pending bucket.

This is the scan ``LifeRaftScheduler.next_work`` ran on every bucket
service before the manager kept a scheduling index — ``pending_state`` and
the hand-inlined loop, moved here verbatim.  Nothing in ``src/`` calls it;
tests compare the indexed decision against it, pick for pick.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.bucket_cache import BucketCacheManager
from repro.core.scheduler import SchedulerConfig, WorkItem
from repro.core.workload_manager import WorkloadManager


def pending_state(manager: WorkloadManager, now_ms: float) -> List[Tuple[int, int, float]]:
    """One-pass snapshot of the queues: (bucket, queue size, age in ms)."""
    state: List[Tuple[int, int, float]] = []
    for index, queue in manager._queues.items():
        if queue.entries:
            state.append((index, queue._total_objects, max(0.0, now_ms - queue._oldest_ms)))
    return state


def oracle_next_work(
    config: SchedulerConfig,
    manager: WorkloadManager,
    cache: BucketCacheManager,
    now_ms: float,
) -> Optional[WorkItem]:
    """The pending bucket with the highest ``Ua``, lower index on ties, by full scan."""
    state = pending_state(manager, now_ms)
    if not state:
        return None
    cfg = config
    tb = cfg.cost.tb_ms
    tm = cfg.cost.tm_ms
    alpha = cfg.alpha
    one_minus_alpha = 1.0 - alpha
    normalize = cfg.normalize_metric
    resident = cache.resident
    max_age = max(age for _bucket, _size, age in state)
    best_bucket: Optional[int] = None
    best_score = float("-inf")
    for bucket, queue_objects, age in state:
        io_term = 0.0 if resident(bucket) else tb
        ut = queue_objects / (io_term + tm * queue_objects) if queue_objects else 0.0
        if normalize:
            age_term = (age / max_age) if max_age > 0 else 0.0
            score = one_minus_alpha * ut * tm + alpha * age_term
        else:
            score = one_minus_alpha * ut + alpha * age
        if score > best_score or (
            score == best_score and (best_bucket is None or bucket < best_bucket)
        ):
            best_score = score
            best_bucket = bucket
    if best_bucket is None:
        return None
    return WorkItem(bucket_index=best_bucket)
