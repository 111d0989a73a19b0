"""Tests for the workload manager (queues, ages, query bookkeeping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload_manager import WorkloadEntry, WorkloadManager, WorkloadQueue
from tests.core.scheduler_oracle import pending_state


def pending_objects(manager: WorkloadManager) -> int:
    """Objects waiting across all queues (the buffering the paper worries about)."""
    return sum(manager.queue_size(bucket) for bucket in manager.pending_buckets())


class TestWorkloadEntry:
    def test_positive_object_count_required(self):
        with pytest.raises(ValueError):
            WorkloadEntry(query_id=1, object_count=0, enqueue_time_ms=0.0)


class TestWorkloadQueue:
    def test_aggregates_maintained_on_append(self):
        queue = WorkloadQueue(7)
        queue.append(WorkloadEntry(1, 10, 100.0))
        queue.append(WorkloadEntry(2, 5, 50.0))
        assert queue.total_objects == 15
        assert queue.age_ms(150.0) == 100.0
        assert queue.query_ids == [1, 2]

    def test_remove_queries_recomputes_aggregates(self):
        queue = WorkloadQueue(7)
        queue.append(WorkloadEntry(1, 10, 100.0))
        queue.append(WorkloadEntry(2, 5, 50.0))
        removed = queue.remove_queries({2})
        assert [e.query_id for e in removed] == [2]
        assert queue.total_objects == 10
        assert queue.age_ms(150.0) == 50.0

    def test_drain_all_empties_queue(self):
        queue = WorkloadQueue(7)
        queue.append(WorkloadEntry(1, 10, 100.0))
        drained = queue.drain_all()
        assert len(drained) == 1
        assert not queue
        assert queue.total_objects == 0
        assert queue.age_ms(500.0) == 0.0


class TestIntake:
    def test_add_query_with_counts_and_objects(self):
        manager = WorkloadManager()
        manager.add_query(1, {3: 10, 5: 20}, arrival_time_ms=100.0)
        assert manager.queue_size(3) == 10
        assert manager.queue_size(5) == 20
        assert manager.remaining_buckets_for(1) == {3, 5}
        assert manager.oldest_age_ms(3, 150.0) == 50.0

    def test_duplicate_query_rejected(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 1}, 0.0)
        with pytest.raises(ValueError):
            manager.add_query(1, {1: 1}, 0.0)

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            WorkloadManager().add_query(1, {}, 0.0)

    def test_zero_count_assignment_rejected(self):
        with pytest.raises(ValueError):
            WorkloadManager().add_query(1, {0: 0}, 0.0)


class TestSchedulerFacingState:
    def test_pending_buckets_and_state(self):
        manager = WorkloadManager()
        manager.add_query(1, {2: 5}, 1_000.0)
        manager.add_query(2, {2: 7, 9: 3}, 2_000.0)
        assert sorted(manager.pending_buckets()) == [2, 9]
        state = dict((b, (size, age)) for b, size, age in pending_state(manager, 3_000.0))
        assert state[2] == (12, 2_000.0)
        assert state[9] == (3, 1_000.0)
        assert manager.max_pending_age_ms(3_000.0) == 2_000.0

    def test_oldest_age_for_unknown_bucket_is_zero(self):
        manager = WorkloadManager()
        assert manager.oldest_age_ms(42, 100.0) == 0.0
        assert manager.max_pending_age_ms(100.0) == 0.0

    def test_oldest_pending_query_follows_arrival_order(self):
        manager = WorkloadManager()
        manager.add_query(10, {0: 1}, 5.0)
        manager.add_query(11, {1: 1}, 10.0)
        assert manager.oldest_pending_query() == 10
        manager.drain_bucket(0, 20.0)
        assert manager.oldest_pending_query() == 11
        manager.drain_bucket(1, 30.0)
        assert manager.oldest_pending_query() is None

    def test_oldest_pending_query_is_by_arrival_not_submission(self):
        manager = WorkloadManager()
        manager.add_query(2, {0: 1}, 50.0)
        manager.add_query(1, {1: 1}, 10.0)
        assert manager.oldest_pending_query() == 1


class TestService:
    def test_full_drain_completes_single_bucket_query(self):
        manager = WorkloadManager()
        manager.add_query(1, {4: 10}, 0.0)
        drained, completed = manager.drain_bucket(4, 250.0)
        assert [e.query_id for e in drained] == [1]
        assert completed == [1]
        assert manager.completed_count() == 1
        assert manager.completion_time_ms(1) == 250.0
        assert manager.response_time_ms(1) == 250.0
        assert not manager.has_pending_work()

    def test_query_completes_only_after_every_bucket(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 5, 1: 5, 2: 5}, 0.0)
        _, completed = manager.drain_bucket(0, 10.0)
        assert completed == []
        _, completed = manager.drain_bucket(1, 20.0)
        assert completed == []
        _, completed = manager.drain_bucket(2, 30.0)
        assert completed == [1]
        assert manager.response_time_ms(1) == 30.0

    def test_partial_drain_by_query_id(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 5}, 0.0)
        manager.add_query(2, {0: 7}, 1.0)
        drained, completed = manager.drain_bucket(0, 10.0, query_ids=[1])
        assert [e.query_id for e in drained] == [1]
        assert completed == [1]
        assert manager.queue_size(0) == 7
        assert manager.response_time_ms(2) is None

    def test_drain_unknown_bucket_is_noop(self):
        manager = WorkloadManager()
        assert manager.drain_bucket(99, 0.0) == ([], [])

    def test_pending_objects_shrink_by_the_drained_queue(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 5, 1: 3}, 0.0)
        assert pending_objects(manager) == 8
        manager.drain_bucket(0, 1.0)
        assert pending_objects(manager) == 3


class TestBucketMigration:
    def test_add_query_after_adoption_keeps_arrival_order_sorted(self):
        """Regression: a shard can adopt a *later* query via a stolen queue
        before its own staged share for an *earlier* query ingests; the
        earlier query must still come first in arrival order."""
        manager = WorkloadManager()
        manager.adopt_bucket(3, [WorkloadEntry(query_id=9, object_count=5, enqueue_time_ms=9.0)])
        manager.add_query(7, {1: 4}, 7.0)
        assert manager.oldest_pending_query() == 7
        manager.drain_bucket(1, 10.0)
        assert manager.oldest_pending_query() == 9

    def test_adopted_queries_interleave_with_local_arrivals(self):
        manager = WorkloadManager()
        manager.add_query(1, {0: 2}, 1.0)
        manager.adopt_bucket(5, [WorkloadEntry(query_id=4, object_count=3, enqueue_time_ms=4.0)])
        manager.add_query(2, {0: 2}, 2.0)
        manager.adopt_bucket(6, [WorkloadEntry(query_id=3, object_count=3, enqueue_time_ms=3.0)])
        # Drain in arrival order via the cursor.
        order = []
        while manager.has_pending_work():
            oldest = manager.oldest_pending_query()
            order.append(oldest)
            for bucket in list(manager.remaining_buckets_for(oldest)):
                manager.drain_bucket(bucket, 100.0, query_ids=[oldest])
        assert order == [1, 2, 3, 4]


class TestProperties:
    @given(
        st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=50),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_draining_everything_completes_every_query(self, footprints):
        manager = WorkloadManager()
        for query_id, footprint in enumerate(footprints):
            manager.add_query(query_id, footprint, float(query_id))
        total_objects = sum(sum(f.values()) for f in footprints)
        assert pending_objects(manager) == total_objects
        now = 1_000.0
        while manager.has_pending_work():
            bucket = manager.pending_buckets()[0]
            manager.drain_bucket(bucket, now)
            now += 1.0
        assert manager.completed_count() == len(footprints)
        assert pending_objects(manager) == 0
        assert sorted(manager.completed_queries()) == list(range(len(footprints)))
        assert all(manager.response_time_ms(q) is not None for q in range(len(footprints)))
