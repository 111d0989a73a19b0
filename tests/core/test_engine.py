"""Tests for the LifeRaft engine (submit → schedule → evaluate → complete)."""

import pytest

from repro.core.baselines import NoShareScheduler
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchQuery


def make_engine(scheduler=None, bucket_count=16, cache_buckets=4, enable_hybrid=True):
    layout = BucketPartitioner(objects_per_bucket=10_000, bucket_megabytes=40.0).partition_density(
        bucket_count
    )
    store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
    config = EngineConfig(cache_buckets=cache_buckets, enable_hybrid=enable_hybrid)
    return LifeRaftEngine(
        layout,
        store,
        scheduler=scheduler or LifeRaftScheduler(SchedulerConfig(alpha=0.0)),
        index=SpatialIndex([]),
        config=config,
    )


def abstract_query(query_id, footprint, arrival_s=0.0):
    return CrossMatchQuery(query_id=query_id, bucket_footprint=footprint, arrival_time_s=arrival_s)


class TestConfig:
    def test_cache_capacity_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(cache_buckets=0)


class TestSubmitAndProcess:
    def test_single_query_single_bucket(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {3: 1_000}), now_ms=0.0)
        assert engine.has_pending_work()
        result = engine.process_next(0.0)
        assert result.work_item.bucket_index == 3
        assert result.queries_served == (1,)
        assert result.queries_completed == (1,)
        assert result.cost_ms == pytest.approx(1200.0 + 1_000 * 0.13)
        assert not engine.has_pending_work()

    def test_process_next_when_idle_returns_none(self):
        engine = make_engine()
        assert engine.process_next(0.0) is None

    def test_batching_two_queries_on_same_bucket_reads_once(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {5: 600}), now_ms=0.0)
        engine.submit(abstract_query(2, {5: 700}), now_ms=10.0)
        result = engine.process_next(20.0)
        assert sorted(result.queries_served) == [1, 2]
        assert sorted(result.queries_completed) == [1, 2]
        assert engine.store.reads == 1
        report = engine.report()
        assert report.completed_queries == 2
        assert report.bucket_services == 1

    def test_query_completes_only_after_all_buckets(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {0: 500, 1: 600}), now_ms=0.0)
        first = engine.process_next(0.0)
        assert first.queries_completed == ()
        second = engine.process_next(first.finished_at_ms)
        assert second.queries_completed == (1,)

    def test_process_next_drains_everything_then_returns_none(self):
        engine = make_engine()
        for query_id in range(5):
            engine.submit(abstract_query(query_id, {query_id: 400, query_id + 5: 500}), now_ms=0.0)
        batches = 0
        while engine.process_next() is not None:
            batches += 1
        assert batches == len(engine.batches)
        assert not engine.has_pending_work()
        assert engine.report().completed_queries == 5

    def test_process_next_serves_one_bucket_per_call(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {0: 400, 1: 400, 2: 400}), now_ms=0.0)
        served = [engine.process_next().work_item.bucket_index for _ in range(2)]
        assert len(set(served)) == 2
        assert len(engine.batches) == 2
        assert engine.has_pending_work()
        assert engine.process_next().queries_completed == (1,)
        assert not engine.has_pending_work()

    def test_query_outside_layout_raises(self):
        engine = make_engine(bucket_count=4)
        with pytest.raises(ValueError):
            engine.submit(abstract_query(1, {99: 10}), now_ms=0.0)


class TestSchedulingIntegration:
    def test_noshare_scheduler_bypasses_cache(self):
        engine = make_engine(scheduler=NoShareScheduler())
        engine.submit(abstract_query(1, {2: 600}), now_ms=0.0)
        engine.submit(abstract_query(2, {2: 600}), now_ms=0.0)
        while engine.process_next() is not None:
            pass
        # Both queries scanned the same bucket but shared nothing.
        assert engine.store.reads == 2
        assert engine.report().cache_hit_rate == 0.0

    def test_liferaft_uses_hybrid_index_path_for_tiny_queues(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {2: 20}), now_ms=0.0)
        result = engine.process_next(0.0)
        assert result.join.strategy.value == "indexed_join"
        assert engine.report().strategy_counts["indexed_join"] == 1

    def test_hybrid_disabled_forces_scans(self):
        engine = make_engine(enable_hybrid=False)
        engine.submit(abstract_query(1, {2: 20}), now_ms=0.0)
        result = engine.process_next(0.0)
        assert result.join.strategy.value == "sequential_scan"


class TestReporting:
    def test_report_tracks_throughput_and_response_times(self):
        engine = make_engine()
        engine.submit(abstract_query(1, {0: 1_000}, arrival_s=0.0), now_ms=0.0)
        engine.submit(abstract_query(2, {1: 1_000}, arrival_s=1.0), now_ms=1_000.0)
        while engine.process_next() is not None:
            pass
        report = engine.report()
        assert report.completed_queries == 2
        assert set(report.response_times_ms) == {1, 2}
        assert report.makespan_ms > 0
        assert report.throughput_qps > 0
        assert report.avg_response_time_s > 0
        assert report.total_io_ms > 0
        assert report.busy_time_ms == pytest.approx(
            sum(batch.cost_ms for batch in engine.batches)
        )

    def test_empty_report(self):
        engine = make_engine()
        report = engine.report()
        assert report.completed_queries == 0
        assert report.throughput_qps == 0.0
        assert report.avg_response_time_s == 0.0
