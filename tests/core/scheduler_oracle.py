"""Reference implementations of the LifeRaft decision, oldest first.

:func:`oracle_next_work` is the scan ``LifeRaftScheduler.next_work`` ran on
every bucket service before the manager kept a scheduling index —
``pending_state`` and the hand-inlined loop, moved here verbatim.
:func:`walk_next_work` is the threshold walk over that index as it was
before scores were built from precomputed terms: one ``ua`` closure call
per score (:func:`walk_ua`, the scheduler's ``_ua``), moved here verbatim.
Nothing in ``src/`` calls either; tests compare the live decision against
both, pick for pick.

Equations (1) and (2) of the paper live here too, one function each, as
written in ``repro.core.metrics``'s docstring: tests compare :func:`score`
(the scheduler's own term functions for one bucket) against them bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bucket_cache import BucketCacheManager
from repro.core.metrics import CostModel
from repro.core.scheduler import (
    LifeRaftScheduler,
    SchedulerConfig,
    WorkItem,
    age_term,
    age_unit_ms,
    throughput_term,
)
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


def walk_ua(
    config: SchedulerConfig, now_ms: float, max_age_ms: float
) -> Callable[[int, float, float], float]:
    """Equations (1)–(2) for one instant: ``ua(queue size, oldest enqueue ms, io ms)``.

    Every comparison in :func:`walk_next_work` (candidates *and* pruning
    bounds) calls the returned function, so they agree bit for bit.  *io ms* is
    ``Tb`` for a cold bucket and 0 for a cache-resident one (the φ(i) of
    Equation 1).
    """
    cfg = config
    tm = cfg.cost.tm_ms
    alpha = cfg.alpha
    one_minus_alpha = 1.0 - alpha
    normalize = cfg.normalize_metric

    def ua(queue_objects: int, oldest_ms: float, io_ms: float) -> float:
        ut = queue_objects / (io_ms + tm * queue_objects) if queue_objects else 0.0
        age = now_ms - oldest_ms
        if age < 0.0:
            age = 0.0
        if normalize:
            age_term = (age / max_age_ms) if max_age_ms > 0 else 0.0
            return one_minus_alpha * ut * tm + alpha * age_term
        return one_minus_alpha * ut + alpha * age

    return ua


def walk_next_work(
    config: SchedulerConfig,
    manager: WorkloadManager,
    cache: BucketCacheManager,
    now_ms: float,
) -> Optional[WorkItem]:
    """The threshold walk over the scheduling index, one ``ua`` call per score."""
    if not manager.has_pending_work():
        return None
    ua = walk_ua(config, now_ms, manager.max_pending_age_ms(now_ms))
    tb = config.cost.tb_ms
    best_score = float("-inf")
    best_bucket = -1
    for bucket, queue_objects, oldest_ms in manager.pending_among(cache.resident_buckets()):
        score = ua(queue_objects, oldest_ms, 0.0)
        if score > best_score or (score == best_score and bucket < best_bucket):
            best_score = score
            best_bucket = bucket
    # There are no more age groups than pending buckets, so the size
    # order cannot run out before the groups do.
    by_size = iter(manager.size_order())
    for group_ms, group in manager.age_groups():
        negated_size, bucket, oldest_ms = next(by_size)
        if ua(-negated_size, group_ms, tb) < best_score:
            break
        score = ua(-negated_size, oldest_ms, tb)
        if score > best_score or (score == best_score and bucket < best_bucket):
            best_score = score
            best_bucket = bucket
        for negated_size, bucket, _ in group:
            score = ua(-negated_size, group_ms, tb)
            if score < best_score:
                break
            if score > best_score or bucket < best_bucket:
                best_score = score
                best_bucket = bucket
    return WorkItem(bucket_index=best_bucket)


def score(
    scheduler: LifeRaftScheduler,
    bucket_index: int,
    manager: WorkloadManager,
    cache: BucketCacheManager,
    now_ms: float,
) -> float:
    """The aged workload throughput ``Ua`` the scheduler gives one bucket right now."""
    config = scheduler.config
    queue = manager._queues.get(bucket_index)
    io_ms = 0.0 if cache.resident(bucket_index) else config.cost.tb_ms
    return throughput_term(config, manager.queue_size(bucket_index), io_ms) + age_term(
        config.alpha,
        age_unit_ms(config, manager.max_pending_age_ms(now_ms)),
        now_ms,
        queue._oldest_ms if queue is not None else float("inf"),
    )


def rank_buckets(
    scheduler: LifeRaftScheduler,
    manager: WorkloadManager,
    cache: BucketCacheManager,
    now_ms: float,
) -> Dict[int, float]:
    """The :func:`score` of every pending bucket."""
    return {
        bucket: score(scheduler, bucket, manager, cache, now_ms)
        for bucket in manager.pending_buckets()
    }


def workload_throughput(queue_objects: int, in_memory: bool, cost: CostModel) -> float:
    """Equation (1): the workload throughput ``Ut`` of one bucket.

    Returns 0 for an empty queue (there is nothing to consume, so the bucket
    should never be selected on contention grounds).
    """
    if queue_objects < 0:
        raise ValueError("queue size cannot be negative")
    if queue_objects == 0:
        return 0.0
    phi = 0.0 if in_memory else 1.0
    return queue_objects / (cost.tb_ms * phi + cost.tm_ms * queue_objects)


def max_workload_throughput(cost: CostModel) -> float:
    """Upper bound of ``Ut``: the in-memory matching rate ``1/Tm``."""
    return 1.0 / cost.tm_ms


def aged_workload_throughput(
    ut: float,
    age_ms: float,
    alpha: float,
    cost: Optional[CostModel] = None,
    max_age_ms: Optional[float] = None,
    normalize: bool = True,
) -> float:
    """Equation (2): blend contention (``Ut``) with request age.

    Parameters
    ----------
    ut:
        Workload throughput of the bucket (objects per millisecond).
    age_ms:
        Age of the oldest pending request in the bucket's queue.
    alpha:
        Age bias in ``[0, 1]``; 0 selects the most contentious bucket, 1
        schedules purely by arrival order.
    cost, max_age_ms, normalize:
        When *normalize* is true (the default) ``ut`` is scaled by ``Tm``,
        the inverse of its upper bound ``1/Tm`` (requires *cost*), and
        ``age_ms`` divided by *max_age_ms* (the age of the oldest request
        over all queues), so both terms are comparable and intermediate α
        values interpolate meaningfully.  With ``normalize=False`` the raw
        paper formula is used.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    if age_ms < 0:
        raise ValueError("age cannot be negative")
    # Operation for operation the expression ``LifeRaftScheduler`` evaluates
    # (``ut·Tm``, not ``ut / (1/Tm)``): the two agree bit for bit, not to an ulp.
    if not normalize:
        return (1.0 - alpha) * ut + alpha * age_ms
    if cost is None:
        raise ValueError("normalised combination requires a CostModel")
    if max_age_ms is None or max_age_ms <= 0:
        age_term = 0.0
    else:
        age_term = min(1.0, age_ms / max_age_ms)
    return (1.0 - alpha) * ut * cost.tm_ms + alpha * age_term
