"""The indexed decision against its two oracles, and the index invariants.

``LifeRaftScheduler.next_work`` reads the manager's scheduling index and
scores from precomputed terms.  ``scheduler_oracle.py`` holds what it
replaced: the threshold walk that called ``ua`` once per score, and the
full scan that scores every pending bucket.  The stateful test drives two
managers and a real bucket cache through everything that can change a
queue's key, the cache's residency or the scheduler's configuration, and
requires the same ``WorkItem`` from all three at every decision — ties,
clamped ages, both α extremes, repeated queue sizes and a scheduler whose
memo of throughput terms has lived through many decisions included.

Every queue is shadowed by the rescanning queue partial drains used to be
(``queue_oracle.py``).  After each step the live queues must hold the
oracle's entries in the oracle's order, with its totals and oldest
requests; the index must be the one the oracle's queues imply; and the
manager must pickle to the bytes of a twin that never drained partially.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.baselines import NoShareScheduler
from repro.core.bucket_cache import BucketCacheManager
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.metrics import CostModel
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig, throughput_term
from repro.core.workload_manager import WorkloadEntry, WorkloadManager
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchQuery
from tests.core.queue_oracle import RescanningQueue, oracle_twin
from tests.core.scheduler_oracle import (
    aged_workload_throughput,
    oracle_next_work,
    rank_buckets,
    score,
    walk_next_work,
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


def assert_same_entries(actual, expected) -> None:
    """The same entry objects in the same order (equal fields are not enough)."""
    assert len(actual) == len(expected)
    assert all(a is b for a, b in zip(actual, expected))


class IndexedDecisionMachine(RuleBasedStateMachine):
    """Two managers (a steal pair), one cache, one scheduler whose config moves."""

    def __init__(self):
        super().__init__()
        layout = BucketPartitioner().partition_density(BUCKETS)
        self.managers = [WorkloadManager(), WorkloadManager()]
        #: Per manager, the rescanning oracle of every pending queue.
        self.oracles = [{}, {}]
        self.cache = BucketCacheManager(BucketStore(layout), capacity=3)
        self.scheduler = LifeRaftScheduler(SchedulerConfig())
        self.next_query_id = 0

    # -- queue mutations ------------------------------------------------ #

    def _enqueue(self, which, query_id, footprint, arrival_ms, merge=False):
        manager = self.managers[which]
        manager.add_query(query_id, footprint, arrival_ms, merge=merge)
        for bucket, count in footprint.items():
            entry = manager.queue(bucket).entries[-1]
            assert entry == WorkloadEntry(query_id, count, arrival_ms)
            self.oracles[which].setdefault(bucket, RescanningQueue(bucket)).append(entry)

    def _drain(self, which, bucket, now_ms, query_ids=None):
        manager = self.managers[which]
        oracle = self.oracles[which].get(bucket)
        if query_ids is not None:
            expected = oracle.remove_queries(set(query_ids)) if oracle else []
            # What a service evaluates before it drains.
            assert_same_entries(manager.queue(bucket).entries_of(query_ids), expected)
        else:
            expected = oracle.drain_all() if oracle else []
        drained, _completed = manager.drain_bucket(bucket, now_ms, query_ids=query_ids)
        assert_same_entries(drained, expected)
        if oracle is not None and not oracle.entries:
            del self.oracles[which][bucket]

    @rule(
        which=st.integers(0, 1),
        footprint=st.dictionaries(BUCKET, SIZES, min_size=1, max_size=5),
        arrival_ms=TIMES,
    )
    def add_query(self, which, footprint, arrival_ms):
        self._enqueue(which, self.next_query_id, footprint, arrival_ms)
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
        self._enqueue(which, query_id, footprint, arrival_ms, merge=True)

    @rule(which=st.integers(0, 1), bucket=BUCKET, now_ms=TIMES)
    def drain_fully(self, which, bucket, now_ms):
        self._drain(which, bucket, now_ms)

    @rule(which=st.integers(0, 1), bucket=BUCKET, now_ms=TIMES, data=st.data())
    def drain_some_queries(self, which, bucket, now_ms, data):
        present = [entry.query_id for entry in self.managers[which].queue(bucket).entries]
        wanted = data.draw(st.lists(st.sampled_from(present or [-1]), max_size=3))
        self._drain(which, bucket, now_ms, query_ids=wanted)

    @rule(which=st.integers(0, 1), now_ms=TIMES)
    def serve_oldest_query(self, which, now_ms):
        """NoShare's drain: the oldest pending query's entries in its lowest bucket."""
        manager = self.managers[which]
        query_id = manager.oldest_pending_query()
        if query_id is not None:
            bucket = min(manager.remaining_buckets_for(query_id))
            self._drain(which, bucket, now_ms, query_ids=(query_id,))

    @precondition(lambda self: any(self.oracles))
    @rule(which=st.integers(0, 1), data=st.data(), arrival_ms=TIMES)
    def repeat_a_queue_size(self, which, data, arrival_ms):
        """New queues as large as a pending one: equal sizes share a memoised term."""
        pending = {b: o._total_objects for oracles in self.oracles for b, o in oracles.items()}
        size = pending[data.draw(st.sampled_from(sorted(pending)))]
        empty = [b for b in range(BUCKETS) if b not in self.oracles[which]]
        buckets = data.draw(st.lists(st.sampled_from(empty or [0]), min_size=1, max_size=3))
        footprint = {bucket: size for bucket in buckets if bucket not in self.oracles[which]}
        if footprint:
            self._enqueue(which, self.next_query_id, footprint, arrival_ms)
            self.next_query_id += 1

    @rule(source=st.integers(0, 1), bucket=BUCKET)
    def steal(self, source, bucket):
        entries = self.managers[source].release_bucket(bucket)
        oracle = self.oracles[source].pop(bucket, None)
        assert_same_entries(entries, oracle.drain_all() if oracle else [])
        self.managers[1 - source].adopt_bucket(bucket, entries)
        if entries:
            target = self.oracles[1 - source].setdefault(bucket, RescanningQueue(bucket))
            for entry in entries:
                target.append(entry)

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
        self._decide(which, now_ms)

    def _decide(self, which, now_ms):
        """The scheduler's pick, checked against the walk and the full scan."""
        manager = self.managers[which]
        config = self.scheduler.config
        expected = oracle_next_work(config, manager, self.cache, now_ms)
        assert walk_next_work(config, manager, self.cache, now_ms) == expected
        work = self.scheduler.next_work(manager, self.cache, now_ms)
        assert work == expected
        if expected is not None:
            ranks = rank_buckets(self.scheduler, manager, self.cache, now_ms)
            assert expected.bucket_index == min(ranks, key=lambda b: (-ranks[b], b))
        return work

    @rule(which=st.integers(0, 1), now_ms=TIMES, services=st.integers(1, 8))
    def serve_in_turn(self, which, now_ms, services):
        """Decide and drain the pick, again and again, with the one scheduler.

        Its memo of throughput terms carries over from decision to decision while
        queues shrink and the clock moves on.
        """
        for _ in range(services):
            work = self._decide(which, now_ms)
            if work is None:
                break
            self._drain(which, work.bucket_index, now_ms)
            now_ms += 130.0

    @invariant()
    def memo_holds_throughput_terms(self):
        config = self.scheduler.config
        for key, term in self.scheduler._terms.items():
            io_ms = 0.0 if key > 0 else config.cost.tb_ms
            assert term == throughput_term(config, abs(key), io_ms)

    @invariant()
    def index_matches_queues(self):
        for manager in self.managers:
            check_index(manager)

    @invariant()
    def queues_match_the_rescanning_oracle(self):
        for manager, oracles in zip(self.managers, self.oracles):
            queues = manager._queues
            assert list(queues) == list(oracles)
            for bucket, oracle in oracles.items():
                queue = queues[bucket]
                assert_same_entries(queue.entries, oracle.entries)
                assert queue.total_objects == oracle._total_objects
                assert queue._oldest_ms == oracle._oldest_ms
            assert manager._by_size == sorted(
                (-o._total_objects, bucket, o._oldest_ms) for bucket, o in oracles.items()
            )
            assert pickle.dumps(manager) == pickle.dumps(oracle_twin(manager, oracles))


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
                    assert score(scheduler, bucket, manager, cache, now_ms) == expected

    def test_score_of_a_bucket_without_work_is_zero(self):
        manager, cache = make_manager_and_cache()
        manager.add_query(1, {1: 10}, 0.0)
        assert score(LifeRaftScheduler(), 7, manager, cache, 500.0) == 0.0


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
        # Finish a few queries outright, and re-open one that finished
        # (an adopted queue brings it a new bucket), so the query states
        # hold all three kinds: finished, open, and re-opened.
        for bucket in (4, 6, 7, 8):
            manager.drain_bucket(bucket, 1_000.0)
        finished = [q for q in manager._queries.values() if q.completion_time_ms is not None]
        assert len(finished) > 2
        reopened = finished[0].query_id
        manager.adopt_bucket(BUCKETS - 1, [WorkloadEntry(reopened, 5, 0.0)])
        state = manager.__getstate__()
        assert list(state) == [
            "_queues",
            "_queries",
            "_completed",
            "_arrival_order",
            "_arrival_cursor",
        ]
        # Finished queries travel as five plain columns in query order, open
        # ones as objects beside their positions in that order.
        columns, open_states = state["_queries"]
        assert [len(column) for column in columns] == [len(finished) - 1] * 5
        assert all(isinstance(column, list) for column in columns)
        assert columns[0] == [q.query_id for q in finished if q.query_id != reopened]
        positions = {query_id: i for i, query_id in enumerate(manager._queries)}
        assert [(i, q.query_id) for i, q in open_states] == [
            (positions[q.query_id], q.query_id)
            for q in manager._queries.values()
            if q.remaining_buckets or q.completion_time_ms is None
        ]
        payload = pickle.dumps(manager)
        assert b"_by_size" not in payload and b"_group" not in payload
        restored = pickle.loads(payload)
        assert list(restored._queries.items()) == list(manager._queries.items())
        assert pickle.dumps(restored) == payload
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
        # Every service drains at least one entry, so the backlog empties
        # within this many; a drain that removes nothing fails, not hangs.
        for _ in range(queries * BUCKETS):
            if not engine.has_pending_work():
                break
            now_ms = engine.process_next(now_ms).finished_at_ms
            check_index(engine.manager)
        assert not engine.has_pending_work(), "services stopped draining the queues"
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
