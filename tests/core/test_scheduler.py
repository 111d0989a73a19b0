"""Tests for the LifeRaft scheduler (aged workload throughput selection)."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket_cache import BucketCacheManager
from repro.core.metrics import CostModel
from repro.core.scheduler import (
    MAX_MEMOISED_TERMS,
    LifeRaftScheduler,
    SchedulerConfig,
    WorkItem,
)
from repro.core.workload_manager import WorkloadManager
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.partitioner import BucketPartitioner
from tests.core.scheduler_oracle import rank_buckets


def make_environment(bucket_count=16, cache_capacity=4):
    layout = BucketPartitioner(objects_per_bucket=10_000, bucket_megabytes=40.0).partition_density(
        bucket_count
    )
    store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
    return WorkloadManager(), BucketCacheManager(store, cache_capacity)


class TestConfig:
    def test_alpha_bounds_validated(self):
        with pytest.raises(ValueError):
            SchedulerConfig(alpha=1.2)
        with pytest.raises(ValueError):
            SchedulerConfig(alpha=-0.1)

    def test_name_carries_alpha(self):
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=1.0))
        assert scheduler.alpha == 1.0
        assert "alpha=1" in scheduler.name


class TestSelection:
    def test_no_pending_work_returns_none(self):
        manager, cache = make_environment()
        assert LifeRaftScheduler().next_work(manager, cache, 0.0) is None

    def test_greedy_prefers_larger_queue_when_all_cold(self):
        manager, cache = make_environment()
        manager.add_query(1, {2: 100}, 0.0)
        manager.add_query(2, {7: 5_000}, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        work = scheduler.next_work(manager, cache, 1_000.0)
        assert work == WorkItem(bucket_index=7)

    def test_greedy_prefers_resident_bucket_over_larger_cold_queue(self):
        manager, cache = make_environment()
        manager.add_query(1, {2: 50}, 0.0)
        manager.add_query(2, {7: 5_000}, 0.0)
        cache.load(2)  # bucket 2 is now in memory: phi(2) = 0
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        work = scheduler.next_work(manager, cache, 1_000.0)
        assert work.bucket_index == 2

    def test_age_bias_one_follows_arrival_order(self):
        manager, cache = make_environment()
        manager.add_query(1, {5: 10}, 100.0)
        manager.add_query(2, {9: 10_000}, 5_000.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=1.0))
        work = scheduler.next_work(manager, cache, 10_000.0)
        assert work.bucket_index == 5

    def test_intermediate_alpha_can_flip_to_old_small_queue(self):
        manager, cache = make_environment()
        # A contentious young bucket vs. a starving old one.
        manager.add_query(1, {3: 200}, 0.0)
        manager.add_query(2, {8: 9_000}, 990_000.0)
        greedy = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        balanced = LifeRaftScheduler(SchedulerConfig(alpha=0.9))
        now = 1_000_000.0
        assert greedy.next_work(manager, cache, now).bucket_index == 8
        assert balanced.next_work(manager, cache, now).bucket_index == 3

    def test_ties_break_toward_lower_bucket_index(self):
        manager, cache = make_environment()
        manager.add_query(1, {4: 100, 9: 100}, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        assert scheduler.next_work(manager, cache, 10.0).bucket_index == 4

    def test_decision_counter_increments(self):
        manager, cache = make_environment()
        manager.add_query(1, {0: 10}, 0.0)
        scheduler = LifeRaftScheduler()
        scheduler.next_work(manager, cache, 1.0)
        scheduler.next_work(manager, cache, 2.0)
        assert scheduler.decisions == 2

    def test_work_item_defaults_to_shared_full_drain(self):
        manager, cache = make_environment()
        manager.add_query(1, {0: 10}, 0.0)
        work = LifeRaftScheduler().next_work(manager, cache, 1.0)
        assert work.query_ids is None
        assert work.share_io
        assert work.force_strategy is None


class TestScoring:
    def test_larger_queue_scores_higher(self):
        manager, cache = make_environment()
        manager.add_query(1, {1: 100, 2: 5_000}, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.3))
        ranks = rank_buckets(scheduler, manager, cache, 60_000.0)
        assert set(ranks) == {1, 2}
        assert ranks[2] > ranks[1]

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=20_000),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_selected_bucket_maximises_the_score(self, footprint, alpha):
        manager, cache = make_environment()
        manager.add_query(1, footprint, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=alpha))
        now = 30_000.0
        work = scheduler.next_work(manager, cache, now)
        ranks = rank_buckets(scheduler, manager, cache, now)
        assert work.bucket_index == min(ranks, key=lambda bucket: (-ranks[bucket], bucket))


class TestTermMemo:
    """The memo of throughput terms is derived state: it never travels."""

    CONFIGS = [
        SchedulerConfig(),
        SchedulerConfig(alpha=0.0, normalize_metric=False),
        SchedulerConfig(alpha=0.7, cost=CostModel(tb_ms=50.0, tm_ms=0.001)),
    ]

    def decided(self, config):
        manager, cache = make_environment()
        for query_id in range(12):
            manager.add_query(query_id, {query_id % 9: 10 + query_id % 4}, 25.0 * query_id)
        cache.load(3)
        scheduler = LifeRaftScheduler(config)
        now_ms = 400.0
        while manager.has_pending_work():
            work = scheduler.next_work(manager, cache, now_ms)
            manager.drain_bucket(work.bucket_index, now_ms)
            now_ms += 130.0
        assert scheduler._terms
        return scheduler

    @pytest.mark.parametrize("config", CONFIGS)
    def test_a_scheduler_that_decided_pickles_like_a_fresh_one(self, config):
        scheduler = self.decided(config)
        fresh = LifeRaftScheduler(config)
        fresh.decisions = scheduler.decisions
        payload = pickle.dumps(scheduler)
        assert payload == pickle.dumps(fresh)
        assert b"_terms" not in payload
        for copied in (pickle.loads(payload), copy.deepcopy(scheduler), copy.copy(scheduler)):
            assert copied._terms == {}
            assert copied.decisions == scheduler.decisions
            assert copied.config == config

    def test_clone_starts_with_an_empty_memo(self):
        scheduler = self.decided(SchedulerConfig(alpha=0.4))
        clone = scheduler.clone()
        assert clone._terms == {} and clone.decisions == 0
        assert clone.config == scheduler.config

    def test_a_resident_queue_never_reads_a_cold_term_of_its_size(self):
        """Equal sizes, one cold and one resident: the memo keeps their terms apart."""
        manager, cache = make_environment()
        manager.add_query(1, {2: 50, 7: 50}, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 2
        cache.load(7)
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 7
        cache.clear()
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 2

    def test_a_memo_past_its_bound_is_cleared_before_a_decision(self):
        manager, cache = make_environment()
        manager.add_query(1, {2: 50, 7: 900}, 0.0)
        scheduler = LifeRaftScheduler(SchedulerConfig(alpha=0.0))
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 7
        assert sorted(scheduler._terms) == [-900, -50]
        # Terms of sizes no queue has: only clearing removes them.
        first = 1_000_000
        for size in range(first, first + MAX_MEMOISED_TERMS - 2):
            scheduler._terms[-size] = -1.0
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 7
        assert len(scheduler._terms) == MAX_MEMOISED_TERMS
        scheduler._terms[-first + 1] = -1.0
        assert scheduler.next_work(manager, cache, 100.0).bucket_index == 7
        assert sorted(scheduler._terms) == [-900, -50]
