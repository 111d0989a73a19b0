"""Tests for incremental result streams and the stream hub."""

import pytest

from repro.service.streams import ResultStream, StreamHub


class TestResultStream:
    def test_chunks_accumulate_progress_to_final(self):
        stream = ResultStream(7, needed_buckets=(3, 5, 9), arrival_ms=100.0)
        first = stream.emit(5, objects=40, time_ms=250.0)
        assert first.seq == 0 and first.bucket_index == 5
        assert first.progress == pytest.approx(1 / 3)
        assert not first.final
        second = stream.emit(3, objects=10, time_ms=400.0)
        assert second.progress == pytest.approx(2 / 3)
        final = stream.emit(9, objects=5, time_ms=900.0)
        assert final.final and final.progress == pytest.approx(1.0)
        assert stream.is_complete
        assert stream.objects_matched == 55

    def test_latency_properties_are_client_perceived(self):
        stream = ResultStream(1, needed_buckets=(0, 1), arrival_ms=1_000.0)
        assert stream.time_to_first_result_ms is None
        assert stream.time_to_completion_ms is None
        stream.emit(0, objects=1, time_ms=1_500.0)
        assert stream.time_to_first_result_ms == pytest.approx(500.0)
        assert stream.time_to_completion_ms is None
        stream.emit(1, objects=1, time_ms=4_000.0)
        assert stream.time_to_completion_ms == pytest.approx(3_000.0)

    def test_unneeded_bucket_emits_nothing(self):
        stream = ResultStream(1, needed_buckets=(0,), arrival_ms=0.0)
        assert stream.emit(42, objects=9, time_ms=10.0) is None
        chunk = stream.emit(0, objects=1, time_ms=20.0)
        assert chunk.final
        # A second drain of the same bucket is idempotent for the stream.
        assert stream.emit(0, objects=1, time_ms=30.0) is None
        assert len(stream.chunks) == 1

    def test_empty_bucket_set_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            ResultStream(1, needed_buckets=(), arrival_ms=0.0)


class _Record:
    """Minimal BatchRecord-shaped object for hub ingestion tests."""

    def __init__(self, worker_id, seq, bucket, served, objects, start, finish):
        self.worker_id = worker_id
        self.seq = seq
        self.bucket_index = bucket
        self.queries_served = served
        self.objects_served = objects
        self.started_at_ms = start
        self.finished_at_ms = finish


class TestStreamHub:
    def test_fan_out_to_multiple_streams(self):
        hub = StreamHub()
        hub.register(1, (10, 11), arrival_ms=0.0)
        hub.register(2, (10,), arrival_ms=5.0)
        chunks = hub.on_service(10, (1, 2), (30, 40), time_ms=100.0)
        assert [c.query_id for c in chunks] == [1, 2]
        assert chunks[0].objects_matched == 30 and chunks[1].objects_matched == 40
        assert not chunks[0].final and chunks[1].final
        assert hub.completed_queries() == [2]
        assert hub.total_chunks == 2

    def test_unregistered_query_is_ignored(self):
        hub = StreamHub()
        hub.register(1, (10,), arrival_ms=0.0)
        chunks = hub.on_service(10, (1, 99), (5, 5), time_ms=50.0)
        assert [c.query_id for c in chunks] == [1]

    def test_duplicate_registration_rejected(self):
        hub = StreamHub()
        hub.register(1, (0,), arrival_ms=0.0)
        with pytest.raises(ValueError, match="already has a result stream"):
            hub.register(1, (1,), arrival_ms=0.0)

    def test_subscribers_see_chunks_in_emission_order(self):
        hub = StreamHub()
        seen = []
        hub.subscribe(seen.append)
        hub.register(1, (0, 1), arrival_ms=0.0)
        hub.on_service(0, (1,), (2,), time_ms=10.0)
        hub.on_service(1, (1,), (3,), time_ms=20.0)
        assert [(c.bucket_index, c.time_ms) for c in seen] == [(0, 10.0), (1, 20.0)]

    def test_ingest_records_orders_by_finish_time(self):
        """Overlapping services of different workers must stream per-query
        chunks in non-decreasing virtual time (finish order, not start)."""
        hub = StreamHub()
        hub.register(1, (0, 1), arrival_ms=0.0)
        records = [
            # Worker 0 starts first but finishes last.
            _Record(0, 0, 0, (1,), (5,), start=10.0, finish=100.0),
            _Record(1, 0, 1, (1,), (7,), start=20.0, finish=30.0),
        ]
        hub.ingest_records(records)
        times = [chunk.time_ms for chunk in hub.stream(1).chunks]
        assert times == [30.0, 100.0]
        assert hub.stream(1).chunks[0].bucket_index == 1

    def test_latency_summaries(self):
        hub = StreamHub()
        hub.register(1, (0,), arrival_ms=1_000.0)
        hub.register(2, (1,), arrival_ms=1_000.0)
        hub.on_service(0, (1,), (1,), time_ms=2_000.0)
        assert hub.time_to_first_result_s() == [1.0]
        assert hub.time_to_completion_s() == [1.0]
        # Query 2 never streamed: it contributes to neither summary.
        assert len(hub.time_to_first_result_s()) == 1


class TestStreamCursor:
    """Exactly-once chunk resume across a service restart."""

    def _fed_hub(self, records):
        hub = StreamHub()
        hub.register(1, [0, 1, 2], arrival_ms=0.0)
        hub.register(2, [1, 3], arrival_ms=50.0)
        hub.ingest_records(records)
        return hub

    def _records(self):
        return [
            _Record(0, 0, 0, (1,), (10,), 90.0, 100.0),
            _Record(0, 1, 1, (1, 2), (5, 7), 190.0, 200.0),
            _Record(0, 2, 2, (1,), (3,), 290.0, 300.0),
            _Record(0, 3, 3, (2,), (4,), 390.0, 400.0),
        ]

    def test_cursor_round_trip_resumes_exactly_once(self):
        records = self._records()
        # Original hub sees the first half, then "crashes".
        original = self._fed_hub(records[:2])
        cursor = original.cursor()
        assert cursor.total_chunks == 3

        # A rebuilt hub restores the cursor silently, then ingests the
        # tail — including a replayed record, which must be a no-op.
        seen = []
        restored = StreamHub()
        restored.register(1, [0, 1, 2], arrival_ms=0.0)
        restored.register(2, [1, 3], arrival_ms=50.0)
        restored.subscribe(seen.append)
        restored.restore(cursor)
        assert seen == []  # replay never re-notifies subscribers
        restored.ingest_records(records)  # full stream: head is replayed

        reference = self._fed_hub(records)
        for query_id in (1, 2):
            assert [
                (c.seq, c.bucket_index, c.objects_matched, c.time_ms, c.final)
                for c in restored.stream(query_id).chunks
            ] == [
                (c.seq, c.bucket_index, c.objects_matched, c.time_ms, c.final)
                for c in reference.stream(query_id).chunks
            ]
        assert restored.total_chunks == reference.total_chunks
        # Only the tail's chunks reached subscribers, in ingestion order.
        assert [(c.query_id, c.seq) for c in seen] == [(1, 2), (2, 1)]

    def test_restore_requires_registered_streams(self):
        original = self._fed_hub(self._records()[:1])
        cursor = original.cursor()
        empty = StreamHub()
        with pytest.raises(ValueError, match="no registered stream"):
            empty.restore(cursor)

    def test_restore_requires_fresh_streams(self):
        records = self._records()
        original = self._fed_hub(records[:2])
        cursor = original.cursor()
        dirty = self._fed_hub(records[:1])
        with pytest.raises(ValueError, match="fresh streams"):
            dirty.restore(cursor)

    def test_frontend_delegates_cursor(self):
        from repro.core.metrics import CostModel
        from repro.service.frontend import ServiceConfig, ServingFrontEnd
        from repro.storage.partitioner import BucketPartitioner
        from repro.workload.generator import TraceConfig, TraceGenerator

        layout = BucketPartitioner().partition_density(32)
        trace = TraceGenerator(TraceConfig(query_count=6, bucket_count=32, seed=4)).generate()
        first = ServingFrontEnd(ServiceConfig(), layout, CostModel.paper_defaults())
        first.admit(trace.queries)
        cursor = first.cursor()
        assert cursor.total_chunks == 0

        second = ServingFrontEnd(ServiceConfig(), layout, CostModel.paper_defaults())
        second.admit(trace.queries)
        second.hub.restore(cursor)
        assert second.hub.total_chunks == 0
