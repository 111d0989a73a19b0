"""The ``.lrcp`` codec: round trip, generation checks, state fidelity.

Corruption, truncation, version skew and missing files are covered for
every format at once by ``tests/test_fileio.py``.
"""

import os
import pickle

import pytest

from repro.core.engine import EngineConfig
from repro.core.join_evaluator import JoinStrategy
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.fileio import FormatError
from repro.parallel.ipc import ShardReplayer
from repro.parallel.worker import StagedShare, build_shard_worker
from repro.reliability.checkpoint import (
    MAGIC,
    RunCheckpoint,
    ShardCheckpoint,
    capture_shard,
    checkpoint_worker,
    read_checkpoint,
    restore_worker,
    write_checkpoint,
)
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain, metric_value

BUCKETS = 16


@pytest.fixture()
def layout():
    return BucketPartitioner().partition_density(BUCKETS)


def build_worker(layout, worker_id=0):
    store = BucketStore(layout)
    policy = LifeRaftScheduler(SchedulerConfig())
    return build_shard_worker(worker_id, layout, store, policy, EngineConfig())


def stage_workload(worker, count=12, seed=3):
    """Stage a deterministic per-bucket arrival schedule."""
    for i in range(count):
        bucket = (i * 5 + seed) % BUCKETS
        worker.stage(
            StagedShare(
                arrival_ms=100.0 * i,
                query_id=i,
                bucket_index=bucket,
                payload=50 + (i % 3) * 25,
            )
        )


class TestEnvelope:
    def test_round_trip_arbitrary_payload(self, tmp_path):
        path = tmp_path / "state.lrcp"
        payload = {"queues": [1, 2, 3], "clock": 42.5}
        info = write_checkpoint(
            path,
            worker_id=3,
            window_index=7,
            clock_ms=42.5,
            generation="a" * 16,
            payload_obj=payload,
        )
        assert info.byte_size == os.path.getsize(path)
        restored, read_info = read_checkpoint(path, expected_generation="a" * 16)
        assert restored == payload
        assert read_info.worker_id == 3
        assert read_info.window_index == 7
        assert read_info.clock_ms == 42.5
        assert read_info.generation == "a" * 16

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "state.lrcp"
        write_checkpoint(path, 0, 0, 0.0, "b" * 16, {"x": 1})
        assert [entry.name for entry in tmp_path.iterdir()] == ["state.lrcp"]

    def test_generation_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.lrcp"
        write_checkpoint(path, 0, 0, 0.0, "c" * 16, {})
        with pytest.raises(FormatError, match="re-ingested"):
            read_checkpoint(path, expected_generation="d" * 16)

    def test_magic_is_lrcp(self):
        assert MAGIC == b"LRCP"


class TestShardStateFidelity:
    """A restored worker must continue exactly as the original would have."""

    def test_capture_restore_mid_run_produces_identical_tail(self, layout, tmp_path):
        # Reference: run one worker straight through.
        reference = build_worker(layout)
        stage_workload(reference)
        ref_replayer = ShardReplayer(reference)
        reference_records = ref_replayer.advance(None)

        # Subject: advance halfway, checkpoint, restore into a fresh
        # worker, drain the tail there.
        subject = build_worker(layout)
        stage_workload(subject)
        replayer = ShardReplayer(subject)
        barrier_ms = reference_records[len(reference_records) // 2].finished_at_ms
        head = replayer.advance(barrier_ms)
        path = tmp_path / "mid.lrcp"
        info = checkpoint_worker(path, subject, replayer.seq, window_index=1)
        assert info.seq == len(head)

        recovered = build_worker(layout)
        stage_workload(recovered)
        state = restore_worker(path, recovered)
        tail_replayer = ShardReplayer(recovered, start_seq=state.seq)
        tail = tail_replayer.advance(None)

        def as_tuples(records):
            return [
                (r.seq, r.bucket_index, r.queries_served, r.started_at_ms, r.finished_at_ms)
                for r in records
            ]

        assert as_tuples(head + tail) == as_tuples(reference_records)
        # Final accounting matches the uninterrupted worker bit for bit:
        # the lane snapshot is the one record of its totals.
        assert filter_domain(recovered.loop.telemetry.snapshot(), VIRTUAL_DOMAIN) == (
            filter_domain(reference.loop.telemetry.snapshot(), VIRTUAL_DOMAIN)
        )
        assert recovered.cache.statistics() == reference.cache.statistics()
        assert recovered.cache.resident_buckets() == reference.cache.resident_buckets()
        assert (
            recovered.manager.completed_queries()[len(state.manager.completed_queries()):]
            or recovered.manager.completed_queries()
        )

    def test_old_checkpoint_with_copied_totals_restores_the_same_tail(self, layout, tmp_path):
        """Older builds pickled copies of the lane totals (and an adopt count)
        beside the lane snapshot; restore ignores them and reads the snapshot."""
        reference = build_worker(layout)
        stage_workload(reference)
        reference_records = ShardReplayer(reference).advance(None)

        subject = build_worker(layout)
        stage_workload(subject)
        replayer = ShardReplayer(subject)
        head = replayer.advance(reference_records[len(reference_records) // 2].finished_at_ms)
        state = capture_shard(subject, replayer.seq, window_index=1)

        def counter(name, **labels):
            return metric_value(state.telemetry, name, labels)

        strategy_counts = {
            s.value: counter("engine.strategy_services", strategy=s.value) for s in JoinStrategy
        }
        vars(state).update(
            steals=0,
            scan_services=strategy_counts[JoinStrategy.SEQUENTIAL_SCAN.value],
            index_services=strategy_counts[JoinStrategy.INDEXED_JOIN.value],
            busy_ms=counter("engine.busy_ms"),
            services=counter("engine.services"),
            last_completion_ms=max(record.finished_at_ms for record in head),
            strategy_counts=strategy_counts,
            total_io_ms=counter("engine.io_ms"),
            total_match_ms=counter("engine.match_ms"),
            total_matches=counter("engine.matches"),
        )
        path = tmp_path / "old.lrcp"
        generation = subject.loop.cache.store.generation
        write_checkpoint(path, 0, 1, subject.now_ms, generation, state, seq=replayer.seq)

        recovered = build_worker(layout)
        stage_workload(recovered)
        restored = restore_worker(path, recovered)
        assert restored.services == counter("engine.services") > 0
        tail = ShardReplayer(recovered, start_seq=restored.seq).advance(None)
        assert [(r.seq, r.bucket_index, r.started_at_ms) for r in head + tail] == [
            (r.seq, r.bucket_index, r.started_at_ms) for r in reference_records
        ]
        assert filter_domain(recovered.loop.telemetry.snapshot(), VIRTUAL_DOMAIN) == (
            filter_domain(reference.loop.telemetry.snapshot(), VIRTUAL_DOMAIN)
        )

    def test_scheduling_index_is_not_checkpointed(self, layout, tmp_path):
        """The manager's scheduling index is derived state: ``.lrcp`` files
        carry the queues only, and a restored worker rebuilds the index and
        picks the same buckets to the end of the run.  The byte size below
        pins what the file holds: queues, stage, policy, cache residency,
        store reads and the lane snapshot, with no second copy of the lane
        totals beside the snapshot and no index."""

        def stage_deep(worker):
            # Three shares per arrival time over 16 buckets: deep queues,
            # shared oldest-enqueue times, many buckets pending at once.
            for i in range(60):
                worker.stage(
                    StagedShare(
                        arrival_ms=40.0 * (i // 3),
                        query_id=i // 3,
                        bucket_index=(i * 5 + 3) % BUCKETS,
                        payload=50 + (i % 4) * 25,
                    )
                )

        reference = build_worker(layout)
        stage_deep(reference)
        reference_records = ShardReplayer(reference).advance(None)

        subject = build_worker(layout)
        stage_deep(subject)
        replayer = ShardReplayer(subject)
        head = replayer.advance(3_000.0)
        assert len(subject.manager.pending_buckets()) > 8
        path = tmp_path / "deep.lrcp"
        info = checkpoint_worker(path, subject, replayer.seq, window_index=1)
        assert info.byte_size == 6_183

        recovered = build_worker(layout)
        stage_deep(recovered)
        state = restore_worker(path, recovered)
        assert recovered.manager.size_order() == subject.manager.size_order()
        assert list(recovered.manager.age_groups()) == list(subject.manager.age_groups())
        tail = ShardReplayer(recovered, start_seq=state.seq).advance(None)
        assert [(r.seq, r.bucket_index, r.queries_served) for r in head + tail] == [
            (r.seq, r.bucket_index, r.queries_served) for r in reference_records
        ]

    def test_restore_rejects_wrong_worker(self, layout, tmp_path):
        worker = build_worker(layout, worker_id=0)
        stage_workload(worker)
        path = tmp_path / "w0.lrcp"
        checkpoint_worker(path, worker, 0, window_index=0)
        other = build_worker(layout, worker_id=1)
        with pytest.raises(FormatError, match="belongs to worker 0"):
            restore_worker(path, other)

    def test_restore_rejects_generation_mismatch(self, layout, tmp_path):
        worker = build_worker(layout)
        stage_workload(worker)
        path = tmp_path / "gen.lrcp"
        checkpoint_worker(path, worker, 0, window_index=0)
        other_layout = BucketPartitioner().partition_density(BUCKETS * 2)
        other = build_worker(other_layout)
        with pytest.raises(FormatError, match="re-ingested"):
            restore_worker(
                path, other, expected_generation=other.loop.cache.store.generation
            )

    def test_restore_rejects_run_checkpoint_payload(self, layout, tmp_path):
        path = tmp_path / "run.lrcp"
        write_checkpoint(
            path,
            0,
            0,
            0.0,
            build_worker(layout).loop.cache.store.generation,
            RunCheckpoint(window_index=0, tracker=None, accepted_seq={}),
        )
        worker = build_worker(layout)
        with pytest.raises(FormatError, match="not a shard checkpoint"):
            restore_worker(path, worker)

    def test_captured_state_is_picklable_and_complete(self, layout):
        worker = build_worker(layout)
        stage_workload(worker)
        ShardReplayer(worker).advance(500.0)
        state = capture_shard(worker, seq=4, window_index=2)
        clone = pickle.loads(pickle.dumps(state))
        assert isinstance(clone, ShardCheckpoint)
        assert clone.seq == 4
        assert clone.window_index == 2
        assert clone.clock_ms == worker.now_ms
        assert clone.staged == worker.staged_shares()
        assert metric_value(clone.telemetry, "engine.services") == metric_value(
            worker.loop.telemetry.snapshot(), "engine.services"
        )
