"""Benchmarks of one LifeRaft scheduling decision against the pending-set depth.

The decision reads the workload manager's scheduling index, so its cost
must not grow with the number of pending buckets.  What is ratcheted is the
*shape*: ``decision_growth_16x`` — microseconds per decision at 4,096
pending buckets over microseconds at 256, a dimensionless number that is the
same on a fast and a slow machine (a full rescan of the pending set reads
≈ 17 here, the indexed decision ≈ 1.5) — and, beside it, the absolute
``decision_us_at_4096``.  ``BENCH_scheduler.json`` at the repository root is
the committed baseline (``--bench-json``; compare with ``benchmarks.ratchet``).

A scheduler memoises the throughput term of each queue size it has scored,
so repeated calls on one unchanged state find the memo full.  Every
timing sample therefore starts from a fresh scheduler, and the first call
— every term computed afresh — is reported beside the mean as
``decision_us_cold_*``.  ``decision_speedup_vs_walk`` is microseconds per
decision of the walk the live decision replaced (``walk_next_work`` in
``tests/core/scheduler_oracle.py``, one ``ua`` call per score) over the live
decision's, both timed in this process in turns.

A NoShare service drains one query's entry from a queue shared by many, so
its cost must not grow with the queue either: ``partial_drain_growth_16x``
is microseconds per drain at queue depth 1,024 over depth 64 (rescanning
the queue reads ≈ 9 here, draining by the per-query entry map ≈ 1), with
``partial_drain_us_at_1024`` beside it.
"""

import time
from typing import Tuple

import pytest

from repro.core.bucket_cache import BucketCacheManager
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig, WorkItem
from repro.core.workload_manager import WorkloadManager
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from tests.core.scheduler_oracle import walk_next_work

#: The decision may cost at most this many times more at 16× the depth.
MAX_GROWTH_16X = 3.0


def one_entry_queues(pending: int):
    """*pending* single-entry queues, every one its own age group, all cold."""
    layout = BucketPartitioner().partition_density(pending)
    manager = WorkloadManager()
    for bucket in range(pending):
        manager.add_query(bucket, {bucket: 100 + bucket % 7}, float(bucket))
    return manager, BucketCacheManager(BucketStore(layout), 20), float(pending) + 1_000.0


def mixed_queues(pending: int = 1_024):
    """Shared arrival times, deep queues, a heavy tail of sizes, a warm cache."""
    layout = BucketPartitioner().partition_density(pending)
    manager = WorkloadManager()
    for query_id in range(pending):
        # Every fourth share is up to 40x larger: a few queues dwarf the rest.
        footprint = {
            (query_id * 37 + k * 101) % pending: 5
            + (query_id * 13 + k * 7) % (8_000 if k == 3 else 200)
            for k in range(4)
        }
        manager.add_query(query_id, footprint, 250.0 * (query_id // 3))
    cache = BucketCacheManager(BucketStore(layout), 20)
    for bucket in range(0, pending, pending // 20):
        cache.load(bucket)
    return manager, cache, 250.0 * pending


def decision_us(
    config, manager, cache, now_ms, samples: int = 40, calls: int = 50
) -> Tuple[float, float]:
    """Best-of-*samples* microseconds of one ``next_work``: ``(first call, mean over *calls*)``.

    Each sample makes *calls* decisions with a fresh scheduler, so the
    first finds its memo of throughput terms empty.  The state is not drained
    between calls: every call makes the same decision, so the floor over
    samples is the decision's cost with the host's noise removed.
    """
    best_first = best = float("inf")
    for _ in range(samples):
        scheduler = LifeRaftScheduler(config)
        started = time.perf_counter()
        scheduler.next_work(manager, cache, now_ms)
        first = time.perf_counter()
        for _ in range(calls - 1):
            scheduler.next_work(manager, cache, now_ms)
        best_first = min(best_first, first - started)
        best = min(best, time.perf_counter() - started)
    return best_first * 1e6, best / calls * 1e6


def test_bench_decision_vs_pending_depth(benchmark):
    shallow = one_entry_queues(256)
    deep = one_entry_queues(4_096)
    config = SchedulerConfig(alpha=0.25)
    scheduler = LifeRaftScheduler(config)
    work = benchmark.pedantic(scheduler.next_work, args=deep, rounds=200, iterations=1)
    assert isinstance(work, WorkItem)
    _, us_at_256 = decision_us(config, *shallow)
    cold_us_at_4096, us_at_4096 = decision_us(config, *deep)
    growth = us_at_4096 / us_at_256
    benchmark.extra_info["decision_us_at_256"] = round(us_at_256, 3)
    benchmark.extra_info["decision_us_at_4096"] = round(us_at_4096, 3)
    benchmark.extra_info["decision_us_cold_at_4096"] = round(cold_us_at_4096, 3)
    benchmark.extra_info["decision_growth_16x"] = round(growth, 3)
    assert growth <= MAX_GROWTH_16X, (
        f"a decision costs {growth:.1f}x more at 16x the pending buckets "
        f"({us_at_256:.1f} -> {us_at_4096:.1f} us): it scales with the backlog again"
    )


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_bench_decision_mixed_ages_and_residents(benchmark, alpha):
    manager, cache, now_ms = mixed_queues()
    config = SchedulerConfig(alpha=alpha)
    scheduler = LifeRaftScheduler(config)
    work = benchmark.pedantic(
        scheduler.next_work, args=(manager, cache, now_ms), rounds=200, iterations=1
    )
    assert isinstance(work, WorkItem)
    cold_us, us = decision_us(config, manager, cache, now_ms)
    benchmark.extra_info["pending_buckets"] = manager.pending_bucket_count()
    benchmark.extra_info["age_groups"] = len(list(manager.age_groups()))
    benchmark.extra_info["decision_us_mixed"] = round(us, 3)
    benchmark.extra_info["decision_us_cold_mixed"] = round(cold_us, 3)


def walk_and_live_us(config, manager, cache, now_ms, samples: int = 100, calls: int = 50):
    """Best-of-*samples* microseconds per decision of the walk and of the live decision.

    The two take turns within each sample, and which goes first flips every
    sample, so a change in the host's load moves both sides of the ratio
    alike.  The live side starts each sample from a fresh scheduler, as
    :func:`decision_us` does.
    """

    def walk():
        for _ in range(calls):
            walk_next_work(config, manager, cache, now_ms)

    def live():
        scheduler = LifeRaftScheduler(config)
        for _ in range(calls):
            scheduler.next_work(manager, cache, now_ms)

    best = {walk: float("inf"), live: float("inf")}
    for sample in range(samples):
        for function in (walk, live) if sample % 2 == 0 else (live, walk):
            started = time.perf_counter()
            function()
            best[function] = min(best[function], time.perf_counter() - started)
    return best[walk] / calls * 1e6, best[live] / calls * 1e6


@pytest.mark.parametrize(
    "state", [mixed_queues, lambda: one_entry_queues(4_096)], ids=["mixed", "deep_4096"]
)
def test_bench_decision_vs_walk(benchmark, state):
    manager, cache, now_ms = state()
    config = SchedulerConfig(alpha=0.25)
    scheduler = LifeRaftScheduler(config)
    work = benchmark.pedantic(
        scheduler.next_work, args=(manager, cache, now_ms), rounds=200, iterations=1
    )
    assert work == walk_next_work(config, manager, cache, now_ms)
    walk_us, live_us = walk_and_live_us(config, manager, cache, now_ms)
    benchmark.extra_info["walk_decision_us"] = round(walk_us, 3)
    benchmark.extra_info["live_decision_us"] = round(live_us, 3)
    benchmark.extra_info["decision_speedup_vs_walk"] = round(walk_us / live_us, 3)


def partial_drain_us(depth: int, drains: int = 400, samples: int = 15) -> float:
    """Best-of-*samples* microseconds of one NoShare drain at a steady queue *depth*.

    One bucket holds *depth* single-entry queries.  Each step is what a
    NoShare service does to the queue: fetch the oldest query's entries,
    drain them, and (to hold the depth) one more query arrives.
    """
    best = float("inf")
    for _ in range(samples):
        manager = WorkloadManager()
        for query_id in range(depth):
            manager.add_query(query_id, {0: 10 + query_id % 7}, float(query_id))
        # The first partial drain derives the queue's per-query map; time
        # the steady state after it.
        manager.drain_bucket(0, 0.0, query_ids=(0,))
        manager.add_query(depth, {0: 10}, float(depth))
        next_id = depth + 1
        started = time.perf_counter()
        for oldest in range(1, drains + 1):
            manager.queue(0).entries_of((oldest,))
            manager.drain_bucket(0, 0.0, query_ids=(oldest,))
            manager.add_query(next_id, {0: 10 + next_id % 7}, float(next_id))
            next_id += 1
        best = min(best, time.perf_counter() - started)
    return best / drains * 1e6


def test_bench_partial_drain_vs_queue_depth(benchmark):
    manager = WorkloadManager()
    for query_id in range(1_024):
        manager.add_query(query_id, {0: 10}, float(query_id))
    drained_ids = iter(range(1_024))

    def drain_oldest():
        return manager.drain_bucket(0, 0.0, query_ids=(next(drained_ids),))

    drained, _completed = benchmark.pedantic(drain_oldest, rounds=200, iterations=1)
    assert len(drained) == 1
    us_at_64 = partial_drain_us(64)
    us_at_1024 = partial_drain_us(1_024)
    growth = us_at_1024 / us_at_64
    benchmark.extra_info["partial_drain_us_at_64"] = round(us_at_64, 3)
    benchmark.extra_info["partial_drain_us_at_1024"] = round(us_at_1024, 3)
    benchmark.extra_info["partial_drain_growth_16x"] = round(growth, 3)
    assert growth <= MAX_GROWTH_16X, (
        f"a partial drain costs {growth:.1f}x more at 16x the queue depth "
        f"({us_at_64:.1f} -> {us_at_1024:.1f} us): it rescans the queue again"
    )
