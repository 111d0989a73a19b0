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
from repro.core.workload_manager import WorkloadManager
from repro.fileio import FormatError
from repro.parallel.backend import ParallelRunSpec
from repro.parallel.ipc import ShardTask, ShardWorker
from repro.parallel.worker import StagedShare
from repro.reliability.checkpoint import (
    MAGIC,
    ShardCheckpoint,
    checkpoint_shard,
    read_checkpoint,
    restore_shard,
    write_checkpoint,
)
from repro.reliability.config import ReliabilityConfig
from repro.reliability.runtime import ShardCoordinator
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain, metric_value

BUCKETS = 16


@pytest.fixture()
def layout():
    return BucketPartitioner().partition_density(BUCKETS)


def build_shard(layout, arrivals=(), worker_id=0):
    """A shard built the way every shard is: from its task.

    No index on the join key here, so every service scans.
    """
    task = ShardTask(
        worker_id=worker_id,
        config=EngineConfig(enable_hybrid=False),
        policy=LifeRaftScheduler(SchedulerConfig()),
        snapshot=BucketStore(layout).snapshot(),
        arrivals=tuple(arrivals),
    )
    return ShardWorker.from_task(task)


def workload(count=12, seed=3):
    """A deterministic per-bucket arrival schedule."""
    return [
        StagedShare(
            arrival_ms=100.0 * i,
            query_id=i,
            bucket_index=(i * 5 + seed) % BUCKETS,
            payload=50 + (i % 3) * 25,
        )
        for i in range(count)
    ]


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

    def test_reader_without_an_expected_generation_accepts_any(self, tmp_path):
        path = tmp_path / "state.lrcp"
        write_checkpoint(path, 1, 2, 3.0, "e" * 16, [4, 5])
        payload, info = read_checkpoint(path)
        assert payload == [4, 5]
        assert info.generation == "e" * 16

    def test_magic_is_lrcp(self):
        assert MAGIC == b"LRCP"


class TestShardStateFidelity:
    """A restored shard must continue exactly as the original would have."""

    def test_capture_restore_mid_run_produces_identical_tail(self, layout, tmp_path):
        # Reference: run one shard straight through.
        reference = build_shard(layout, workload())
        reference_records = reference.advance(None)

        # Subject: advance halfway, checkpoint, restore into a fresh
        # shard, drain the tail there.
        subject = build_shard(layout, workload())
        barrier_ms = reference_records[len(reference_records) // 2].finished_at_ms
        head = subject.advance(barrier_ms)
        path = tmp_path / "mid.lrcp"
        info = checkpoint_shard(path, subject, window_index=1)
        assert info.seq == len(head)

        recovered = build_shard(layout, workload())
        state = restore_shard(path, recovered)
        assert recovered.seq == state.seq == len(head)
        tail = recovered.advance(None)

        def as_tuples(records):
            return [
                (r.seq, r.bucket_index, r.queries_served, r.started_at_ms, r.finished_at_ms)
                for r in records
            ]

        assert as_tuples(head + tail) == as_tuples(reference_records)
        # Final accounting matches the uninterrupted shard bit for bit:
        # the lane snapshot is the one record of its totals.
        assert filter_domain(recovered.loop.telemetry.snapshot(), VIRTUAL_DOMAIN) == (
            filter_domain(reference.loop.telemetry.snapshot(), VIRTUAL_DOMAIN)
        )
        assert recovered.loop.cache.statistics() == reference.loop.cache.statistics()
        assert recovered.loop.cache.resident_buckets() == reference.loop.cache.resident_buckets()
        completed = recovered.loop.manager.completed_queries()
        assert completed[len(state.manager.completed_queries()):] or completed

    def test_old_checkpoint_with_copied_totals_restores_the_same_tail(self, layout, tmp_path):
        """Older builds pickled copies of the lane totals (and an adopt count)
        beside the lane snapshot; restore ignores them and reads the snapshot."""
        reference = build_shard(layout, workload())
        reference_records = reference.advance(None)

        subject = build_shard(layout, workload())
        head = subject.advance(reference_records[len(reference_records) // 2].finished_at_ms)
        state, _info = read_checkpoint(checkpoint_shard(tmp_path / "new.lrcp", subject, 1).path)

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
        write_checkpoint(path, 0, 1, subject.now_ms, generation, state, seq=subject.seq)

        recovered = build_shard(layout, workload())
        restored = restore_shard(path, recovered)
        assert restored.services == counter("engine.services") > 0
        tail = recovered.advance(None)
        assert [(r.seq, r.bucket_index, r.started_at_ms) for r in head + tail] == [
            (r.seq, r.bucket_index, r.started_at_ms) for r in reference_records
        ]
        assert filter_domain(recovered.loop.telemetry.snapshot(), VIRTUAL_DOMAIN) == (
            filter_domain(reference.loop.telemetry.snapshot(), VIRTUAL_DOMAIN)
        )

    def test_scheduling_index_is_not_checkpointed(self, layout, tmp_path):
        """The manager's scheduling index is derived state: ``.lrcp`` files
        carry the queues only, and a restored shard rebuilds the index and
        picks the same buckets to the end of the run.  The byte size below
        pins what the file holds: queues, stage, policy, cache residency,
        store reads and the lane snapshot, with no second copy of the lane
        totals beside the snapshot and no index."""
        # Three shares per arrival time over 16 buckets: deep queues,
        # shared oldest-enqueue times, many buckets pending at once.
        deep = [
            StagedShare(
                arrival_ms=40.0 * (i // 3),
                query_id=i // 3,
                bucket_index=(i * 5 + 3) % BUCKETS,
                payload=50 + (i % 4) * 25,
            )
            for i in range(60)
        ]
        reference_records = build_shard(layout, deep).advance(None)

        subject = build_shard(layout, deep)
        head = subject.advance(3_000.0)
        assert len(subject.loop.manager.pending_buckets()) > 8
        path = tmp_path / "deep.lrcp"
        info = checkpoint_shard(path, subject, window_index=1)
        assert info.byte_size == 6_239

        recovered = build_shard(layout, deep)
        restore_shard(path, recovered)
        assert recovered.loop.manager.size_order() == subject.loop.manager.size_order()
        assert list(recovered.loop.manager.age_groups()) == list(subject.loop.manager.age_groups())
        tail = recovered.advance(None)
        assert [(r.seq, r.bucket_index, r.queries_served) for r in head + tail] == [
            (r.seq, r.bucket_index, r.queries_served) for r in reference_records
        ]

    def test_restore_rejects_wrong_worker(self, layout, tmp_path):
        shard = build_shard(layout, workload(), worker_id=0)
        path = tmp_path / "w0.lrcp"
        checkpoint_shard(path, shard, window_index=0)
        other = build_shard(layout, worker_id=1)
        with pytest.raises(FormatError, match="belongs to worker 0"):
            restore_shard(path, other)

    def test_restore_rejects_generation_mismatch(self, layout, tmp_path):
        shard = build_shard(layout, workload())
        path = tmp_path / "gen.lrcp"
        checkpoint_shard(path, shard, window_index=0)
        other_layout = BucketPartitioner().partition_density(BUCKETS * 2)
        other = build_shard(other_layout)
        with pytest.raises(FormatError, match="re-ingested"):
            restore_shard(path, other, expected_generation=other.loop.cache.store.generation)

    def test_restore_rejects_a_non_shard_payload(self, layout, tmp_path):
        path = tmp_path / "other.lrcp"
        write_checkpoint(
            path, 0, 0, 0.0, build_shard(layout).loop.cache.store.generation, {"window_index": 0}
        )
        shard = build_shard(layout)
        with pytest.raises(FormatError, match="not a shard checkpoint"):
            restore_shard(path, shard)

    def test_captured_state_is_picklable_and_complete(self, layout, tmp_path):
        shard = build_shard(layout, workload(count=40))
        records = shard.advance(500.0)
        info = checkpoint_shard(tmp_path / "state.lrcp", shard, window_index=2)
        state, _info = read_checkpoint(info.path)
        clone = pickle.loads(pickle.dumps(state))
        assert isinstance(clone, ShardCheckpoint)
        assert clone.seq == shard.seq == len(records) > 0
        assert clone.window_index == 2
        assert clone.clock_ms == shard.now_ms
        # The stage is a suffix of the shard's own schedule: only its length.
        assert shard.stage_is_own
        assert clone.staged == len(shard.staged) > 0
        assert tuple(shard.staged) == tuple(workload(count=40))[-clone.staged :]
        # Finished and open query states alike come back whole, in order.
        manager = shard.loop.manager
        assert manager.completed_count() > 0
        assert list(clone.manager._queries.items()) == list(manager._queries.items())
        assert metric_value(clone.telemetry, "engine.services") == metric_value(
            shard.loop.telemetry.snapshot(), "engine.services"
        )

    def test_a_migrated_stage_is_stored_as_its_shares(self, layout, tmp_path):
        """Once a release takes a staged share the stage is no longer a
        suffix of the schedule, so the checkpoint carries the shares."""
        shard = build_shard(layout, workload(count=40))
        shard.advance(500.0)
        released = shard.release(shard.staged[-1].bucket_index)
        assert released.staged and not shard.stage_is_own
        info = checkpoint_shard(tmp_path / "moved.lrcp", shard, window_index=2)
        state, _info = read_checkpoint(info.path)
        assert state.staged == tuple(shard.staged)
        recovered = build_shard(layout, workload(count=40))
        restore_shard(info.path, recovered)
        assert recovered.staged == shard.staged and not recovered.stage_is_own
        assert recovered.advance(None) == shard.advance(None)

    def test_restore_rejects_a_stage_longer_than_the_schedule(self, layout, tmp_path):
        shard = build_shard(layout, workload())
        path = tmp_path / "long.lrcp"
        checkpoint_shard(path, shard, window_index=0)
        with pytest.raises(FormatError, match="schedule has only 3"):
            restore_shard(path, build_shard(layout, workload(count=3)))

    def test_parent_format_manager_payload_is_a_format_error(self, layout, tmp_path, monkeypatch):
        """Checkpoints of the build before finished queries became columns
        pickled every query state as one dict; such a file is rejected as a
        typed :class:`FormatError`, never a bare ``KeyError`` mid-restore."""

        def parent_getstate(manager):
            state = manager.__dict__.copy()
            for derived in ("_by_size", "_groups", "_group_times", "_pending_entries"):
                del state[derived]
            return state

        shard = build_shard(layout, workload())
        shard.advance(500.0)
        path = tmp_path / "parent.lrcp"
        with monkeypatch.context() as patched:
            patched.setattr(WorkloadManager, "__getstate__", parent_getstate)
            checkpoint_shard(path, shard, window_index=1)
        with pytest.raises(FormatError, match="does not deserialise") as caught:
            restore_shard(path, build_shard(layout, workload()))
        assert not isinstance(caught.value.__cause__, KeyError)


def test_only_a_reliability_run_derives_the_store_generation(layout):
    """The coordinator derives the generation its checkpoints are bound to
    once, before taking the snapshot every shard boots from, so no shard
    re-derives it; a run without reliability never derives it at all."""

    def coordinator(reliability):
        spec = ParallelRunSpec(
            layout=layout,
            store=BucketStore(layout),
            queries=(),
            policy=LifeRaftScheduler(SchedulerConfig()),
            config=EngineConfig(),
            workers=2,
            reliability=reliability,
        )
        return ShardCoordinator(spec, "virtual")

    plain = coordinator(None)
    assert plain.snapshot.generation is None
    assert plain.spec.store._generation is None
    reliable = coordinator(ReliabilityConfig())
    assert reliable.snapshot.generation == BucketStore(layout).generation
