"""The indexed decision against the full-scan oracle, and the index invariants.

``LifeRaftScheduler.next_work`` reads the manager's scheduling index; the
oracle (``scheduler_oracle.py``, the scan it replaced) scores every pending
bucket.  The stateful test drives two managers and a real bucket cache
through everything that can change a queue's key, the cache's residency or
the scheduler's configuration, and requires the same ``WorkItem`` at every
decision — ties, clamped ages and both α extremes included.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.baselines import NoShareScheduler
from repro.core.bucket_cache import BucketCacheManager
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.metrics import CostModel
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.core.workload_manager import WorkloadManager
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchQuery
from tests.core.scheduler_oracle import (
    aged_workload_throughput,
    oracle_next_work,
    rank_buckets,
    workload_throughput,
)

BUCKETS = 12

#: Few distinct values on purpose: equal sizes and equal arrival times are
#: where the tie-break and the age groups are exercised.
SIZES = st.sampled_from([1, 2, 2, 3, 50, 50, 400, 5_000])
TIMES = st.sampled_from([0.0, 10.0, 10.0, 250.0, 4_000.0, 60_000.0])
BUCKET = st.integers(min_value=0, max_value=BUCKETS - 1)
ALPHAS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
#: Cost models a site can have: matching one object never costs more than
#: reading a whole bucket (the precondition of the in-group size order).
COSTS = st.sampled_from(
    [
        CostModel.paper_defaults(),
        CostModel(tb_ms=1.0, tm_ms=1.0),
        CostModel(tb_ms=50.0, tm_ms=0.001),
        CostModel(tb_ms=9_000.0, tm_ms=7.5),
    ]
)


def check_index(manager: WorkloadManager) -> None:
    """The scheduling index equals what the queues say, entry for entry."""
    queues = manager._queues
    assert all(queue.entries for queue in queues.values()), "an empty queue is stored"
    expected = sorted((-q.total_objects, q.bucket_index, q._oldest_ms) for q in queues.values())
    assert manager._by_size == expected
    assert manager._group_times == sorted({entry[2] for entry in expected})
    assert sorted(manager._groups) == manager._group_times
    for oldest_ms, group in manager._groups.items():
        assert group == [entry for entry in expected if entry[2] == oldest_ms]
    assert manager.pending_entries() == sum(len(q.entries) for q in queues.values())
    assert manager.pending_bucket_count() == len(queues) == len(manager.pending_buckets())
    assert manager.has_pending_work() == bool(queues)


class IndexedDecisionMachine(RuleBasedStateMachine):
    """Two managers (a steal pair), one cache, one scheduler whose config moves."""

    def __init__(self):
        super().__init__()
        layout = BucketPartitioner().partition_density(BUCKETS)
        self.managers = [WorkloadManager(), WorkloadManager()]
        self.cache = BucketCacheManager(BucketStore(layout), capacity=3)
        self.scheduler = LifeRaftScheduler(SchedulerConfig())
        self.next_query_id = 0

    # -- queue mutations ------------------------------------------------ #

    @rule(
        which=st.integers(0, 1),
        footprint=st.dictionaries(BUCKET, SIZES, min_size=1, max_size=5),
        arrival_ms=TIMES,
    )
    def add_query(self, which, footprint, arrival_ms):
        self.managers[which].add_query(self.next_query_id, footprint, arrival_ms)
        self.next_query_id += 1

    @precondition(lambda self: self.next_query_id > 0)
    @rule(
        which=st.integers(0, 1),
        data=st.data(),
        footprint=st.dictionaries(BUCKET, SIZES, min_size=1, max_size=3),
        arrival_ms=TIMES,
    )
    def merge_more_work(self, which, data, footprint, arrival_ms):
        """A known query gains work — possibly with an *earlier* arrival time."""
        query_id = data.draw(st.integers(0, self.next_query_id - 1))
        self.managers[which].add_query(query_id, footprint, arrival_ms, merge=True)

    @rule(which=st.integers(0, 1), bucket=BUCKET, now_ms=TIMES)
    def drain_fully(self, which, bucket, now_ms):
        self.managers[which].drain_bucket(bucket, now_ms)

    @rule(which=st.integers(0, 1), bucket=BUCKET, now_ms=TIMES, data=st.data())
    def drain_some_queries(self, which, bucket, now_ms, data):
        manager = self.managers[which]
        present = manager.queue(bucket).query_ids
        wanted = data.draw(st.lists(st.sampled_from(present or [-1]), max_size=3))
        manager.drain_bucket(bucket, now_ms, query_ids=wanted)

    @rule(source=st.integers(0, 1), bucket=BUCKET)
    def steal(self, source, bucket):
        entries = self.managers[source].release_bucket(bucket)
        self.managers[1 - source].adopt_bucket(bucket, entries)

    # -- cache residency -------------------------------------------------- #

    @rule(bucket=BUCKET)
    def cache_load(self, bucket):
        self.cache.load(bucket)

    @rule()
    def cache_clear(self):
        self.cache.clear()

    # -- scheduler configuration ------------------------------------------ #

    @rule(alpha=ALPHAS, cost=COSTS, normalize=st.booleans())
    def reconfigure(self, alpha, cost, normalize):
        self.scheduler = LifeRaftScheduler(
            SchedulerConfig(alpha=alpha, cost=cost, normalize_metric=normalize)
        )

    # -- the property -------------------------------------------------------- #

    @rule(
        which=st.integers(0, 1),
        # -5 is before every enqueue time: all ages clamp to 0, all scores tie.
        now_ms=TIMES | st.sampled_from([-5.0, 5.0, 10.5, 1e7]),
    )
    def decide(self, which, now_ms):
        manager = self.managers[which]
        expected = oracle_next_work(self.scheduler.config, manager, self.cache, now_ms)
        assert self.scheduler.next_work(manager, self.cache, now_ms) == expected
        if expected is not None:
            ranks = rank_buckets(self.scheduler, manager, self.cache, now_ms)
            assert expected.bucket_index == min(ranks, key=lambda b: (-ranks[b], b))

    @invariant()
    def index_matches_queues(self):
        for manager in self.managers:
            check_index(manager)


TestIndexedDecision = IndexedDecisionMachine.TestCase
TestIndexedDecision.settings = settings(stateful_step_count=60, deadline=None)


def make_manager_and_cache(capacity=4):
    layout = BucketPartitioner().partition_density(BUCKETS)
    return WorkloadManager(), BucketCacheManager(BucketStore(layout), capacity)


class TestOneScoringExpression:
    def test_score_equals_the_metric_functions_exactly(self):
        """``score`` and Equations (1)–(2) as written agree bit for bit."""
        manager, cache = make_manager_and_cache()
        manager.add_query(1, {1: 137, 2: 4_999, 3: 3}, 12.5)
        manager.add_query(2, {2: 7, 5: 81}, 977.25)
        cache.load(5)
        now_ms = 31_337.7
        max_age = manager.max_pending_age_ms(now_ms)
        for alpha in (0.0, 0.1, 0.25, 1 / 3, 0.9, 1.0):
            for normalize in (True, False):
                config = SchedulerConfig(alpha=alpha, normalize_metric=normalize)
                scheduler = LifeRaftScheduler(config)
                for bucket in manager.pending_buckets():
                    ut = workload_throughput(
                        manager.queue_size(bucket), cache.resident(bucket), config.cost
                    )
                    expected = aged_workload_throughput(
                        ut,
                        manager.oldest_age_ms(bucket, now_ms),
                        alpha,
                        cost=config.cost,
                        max_age_ms=max_age,
                        normalize=normalize,
                    )
                    assert scheduler.score(bucket, manager, cache, now_ms) == expected

    def test_score_of_a_bucket_without_work_is_zero(self):
        manager, cache = make_manager_and_cache()
        manager.add_query(1, {1: 10}, 0.0)
        assert LifeRaftScheduler().score(7, manager, cache, 500.0) == 0.0


class TestIndexIsDerivedState:
    def test_unpickled_manager_rebuilds_the_index_and_decides_alike(self):
        manager, cache = make_manager_and_cache()
        for query_id in range(40):
            footprint = {
                (query_id * 5 + k) % BUCKETS: 10 + (query_id * 7 + k) % 90 for k in range(3)
            }
            manager.add_query(query_id, footprint, 25.0 * (query_id // 2))
        manager.drain_bucket(3, 900.0)
        manager.drain_bucket(5, 950.0, query_ids=[1, 2])
        assert list(manager.__getstate__()) == [
            "_queues",
            "_queries",
            "_completed",
            "_arrival_order",
            "_arrival_cursor",
        ]
        payload = pickle.dumps(manager)
        assert b"_by_size" not in payload and b"_group" not in payload
        restored = pickle.loads(payload)
        check_index(restored)
        assert restored._by_size == manager._by_size
        scheduler = LifeRaftScheduler()
        now_ms = 1_000.0
        while manager.has_pending_work():
            work = scheduler.next_work(manager, cache, now_ms)
            assert scheduler.next_work(restored, cache, now_ms) == work
            manager.drain_bucket(work.bucket_index, now_ms)
            restored.drain_bucket(work.bucket_index, now_ms)
            now_ms += 130.0
        assert not restored.has_pending_work()


class TestIndexStaysExact:
    """No stale entry survives: the index is as large as the pending set, always."""

    def run_engine(self, scheduler, queries=400):
        layout = BucketPartitioner().partition_density(BUCKETS)
        engine = LifeRaftEngine(
            layout, BucketStore(layout), scheduler=scheduler, config=EngineConfig(cache_buckets=3)
        )
        largest = 0
        now_ms = 0.0
        for query_id in range(queries):
            footprint = {
                (query_id * 7 + k * 5) % BUCKETS: 20 + (query_id * 13 + k) % 300 for k in range(4)
            }
            arrival_ms = 40.0 * (query_id // 3)
            engine.submit(
                CrossMatchQuery(query_id=query_id, bucket_footprint=footprint), now_ms=arrival_ms
            )
            now_ms = max(now_ms, arrival_ms)
            # Service less often than queries arrive, so queues hold several
            # entries and per-query drains are partial.
            if query_id % 2:
                batch = engine.process_next(now_ms)
                now_ms = batch.finished_at_ms
            manager = engine.manager
            largest = max(largest, len(manager._by_size))
            assert len(manager._by_size) == manager.pending_bucket_count() <= BUCKETS
            assert sum(map(len, manager._groups.values())) == len(manager._by_size)
        while engine.has_pending_work():
            now_ms = engine.process_next(now_ms).finished_at_ms
            check_index(engine.manager)
        assert engine.manager._by_size == [] and engine.manager._groups == {}
        assert engine.manager._group_times == []
        assert engine.manager.completed_count() == queries
        return largest

    def test_long_drain_heavy_liferaft_run(self):
        assert self.run_engine(LifeRaftScheduler()) > 1

    def test_noshare_partial_drains_never_ask_for_a_decision(self):
        """NoShare drains one query's entry at a time and never calls the
        LifeRaft decision: index upkeep cannot depend on decisions being made."""
        assert self.run_engine(NoShareScheduler()) > 1


class TestIndexOrders:
    def test_age_groups_and_size_order(self):
        manager = WorkloadManager()
        manager.add_query(1, {4: 30, 2: 30, 9: 5}, 100.0)
        manager.add_query(2, {9: 1, 7: 80}, 50.0)
        assert list(manager.age_groups()) == [
            (50.0, [(-80, 7, 50.0), (-6, 9, 50.0)]),
            (100.0, [(-30, 2, 100.0), (-30, 4, 100.0)]),
        ]
        assert manager.size_order() == [
            (-80, 7, 50.0),
            (-30, 2, 100.0),
            (-30, 4, 100.0),
            (-6, 9, 50.0),
        ]
        assert manager.max_pending_age_ms(40.0) == 0.0
        assert manager.max_pending_age_ms(175.0) == 125.0
        assert manager.pending_among([9, 3, 2]) == [(9, 6, 50.0), (2, 30, 100.0)]

    def test_partial_drain_rekeys_the_queue(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 10}, 5.0)
        manager.add_query(2, {0: 4}, 9.0)
        manager.drain_bucket(0, 20.0, query_ids=[1])
        assert list(manager.age_groups()) == [(9.0, [(-4, 0, 9.0)])]
        check_index(manager)
