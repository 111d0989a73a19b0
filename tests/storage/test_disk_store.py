"""Tests of the file-backed bucket store and the decoded-page cache tier."""

import pickle

import pytest

from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import (
    DEFAULT_PAGE_CACHE_BUCKETS,
    DecodedPageCache,
    DiskBucketStore,
    open_disk_store,
)
from repro.storage.ingest import materialize_layout
from repro.storage.partitioner import BucketPartitioner

BUCKETS = 16
ROWS = 32


@pytest.fixture(scope="module")
def layout():
    return BucketPartitioner().partition_density(
        BUCKETS, densities=[1.0 + (i % 4) for i in range(BUCKETS)]
    )


@pytest.fixture
def store_path(tmp_path, layout):
    manifest = materialize_layout(tmp_path / "site.lrbs", layout, rows_per_bucket=ROWS)
    return manifest.path


def make_disk():
    return calibrated_disk_for_bucket_read(40.0, 1.2)


class TestReadInterfaceParity:
    """The disk store must be a drop-in for the in-memory BucketStore."""

    def test_identical_costs_and_counters(self, store_path, layout):
        disk_store = open_disk_store(store_path, make_disk())
        memory = BucketStore(layout, make_disk())
        for index in range(BUCKETS):
            file_read = disk_store.read_bucket(index)
            memory_read = memory.read_bucket(index)
            assert file_read.cost_ms == pytest.approx(memory_read.cost_ms, rel=1e-12)
            assert file_read.bucket.object_count == memory_read.bucket.object_count
            assert file_read.bucket.spec == memory_read.bucket.spec
        assert disk_store.reads == memory.reads
        assert disk_store.bytes_read_mb == pytest.approx(memory.bytes_read_mb)
        disk_store.close()

    def test_read_cost_estimate_matches_actual(self, store_path):
        # One positioning delay plus a sequential pass over the bucket's megabytes.
        store = open_disk_store(store_path, make_disk())
        parameters = store.disk.parameters
        for index, spec in enumerate(store.layout):
            estimate = parameters.positioning_ms + parameters.transfer_ms(spec.megabytes)
            assert store.read_bucket(index).cost_ms == pytest.approx(estimate, rel=1e-12)
        store.close()

    def test_buckets_are_materialised_and_sorted(self, store_path):
        store = open_disk_store(store_path)
        bucket = store.bucket_image(5)
        rows = bucket.columns.rows()
        assert len(rows) == ROWS
        assert bucket.columns is not None
        assert list(bucket.columns.htm_ids) == sorted(bucket.columns.htm_ids)
        for obj in rows:
            assert obj.htm_id in bucket.spec.htm_range
        store.close()

    def test_layout_adopted_from_file(self, store_path, layout):
        store = open_disk_store(store_path)
        assert store.layout == layout
        store.close()


class TestDecodedPageTier:
    def test_repeat_reads_hit_the_page_cache(self, store_path):
        store = open_disk_store(store_path, make_disk())
        first = store.read_bucket(3)
        again = store.read_bucket(3)
        assert store.reads == 2  # virtual-read accounting unaffected
        assert store.page_reads == 1  # but only one physical decode
        assert again.cost_ms == pytest.approx(first.cost_ms)  # full cost charged
        assert store.statistics()["page_cache_hit_rate"] > 0.0
        store.close()

    def test_disabled_tier_always_reads(self, store_path):
        store = open_disk_store(store_path, make_disk(), page_cache_buckets=0)
        store.read_bucket(3)
        store.read_bucket(3)
        assert store.page_reads == 2
        store.close()

    def test_shared_cache_is_keyed_by_generation(self, tmp_path, layout):
        shared = DecodedPageCache(capacity=DEFAULT_PAGE_CACHE_BUCKETS)
        path_a = materialize_layout(tmp_path / "a.lrbs", layout, rows_per_bucket=4).path
        path_b = materialize_layout(tmp_path / "b.lrbs", layout, rows_per_bucket=8).path
        store_a = DiskBucketStore(path_a, make_disk(), page_cache=shared)
        store_b = DiskBucketStore(path_b, make_disk(), page_cache=shared)
        assert store_a.generation != store_b.generation
        bucket_a = store_a.read_bucket(0).bucket
        bucket_b = store_b.read_bucket(0).bucket
        # Same bucket index, different generations: both stores decoded
        # their own page rather than sharing a stale entry.
        assert len(bucket_a.columns.rows()) == 4
        assert len(bucket_b.columns.rows()) == 8
        assert store_a.page_reads == 1 and store_b.page_reads == 1
        store_a.close()
        store_b.close()

    def test_identical_content_shares_generation(self, tmp_path, layout):
        path_a = materialize_layout(tmp_path / "a.lrbs", layout, rows_per_bucket=4).path
        path_b = materialize_layout(tmp_path / "b.lrbs", layout, rows_per_bucket=4).path
        store_a = open_disk_store(path_a)
        store_b = open_disk_store(path_b)
        assert store_a.generation == store_b.generation
        store_a.close()
        store_b.close()

    def test_real_read_time_is_tracked(self, store_path):
        store = open_disk_store(store_path, make_disk())
        store.read_bucket(1)
        assert store.real_read_s > 0.0
        stats = store.statistics()
        assert stats["page_reads"] == 1.0
        assert stats["real_read_s"] == store.real_read_s
        store.close()


class TestPathSnapshots:
    def test_snapshot_restores_as_disk_store(self, store_path, layout):
        store = open_disk_store(store_path, make_disk())
        snapshot = store.snapshot()
        assert snapshot.layout is None
        restored = BucketStore.from_snapshot(pickle.loads(pickle.dumps(snapshot)))
        assert isinstance(restored, DiskBucketStore)
        assert restored.layout == layout
        assert restored.generation == store.generation
        assert restored.reads == 0  # fresh counters per restore
        original = store.read_bucket(7)
        mirrored = restored.read_bucket(7)
        assert mirrored.cost_ms == pytest.approx(original.cost_ms)
        assert mirrored.bucket.columns.htm_ids == original.bucket.columns.htm_ids
        store.close()
        restored.close()

    def test_snapshot_pickles_small(self, store_path):
        store = open_disk_store(store_path)
        payload = pickle.dumps(store.snapshot())
        assert len(payload) < 1024, "path snapshots must stay tiny"
        store.close()

    def test_generation_mismatch_fails_cleanly(self, tmp_path, layout, store_path):
        store = open_disk_store(store_path)
        snapshot = store.snapshot()
        store.close()
        # Re-ingest different content at the same path.
        materialize_layout(store_path, layout, rows_per_bucket=2)
        with pytest.raises(ValueError, match="generation"):
            BucketStore.from_snapshot(snapshot)

    def test_layoutless_snapshot_without_path_rejected(self, store_path):
        store = open_disk_store(store_path)
        snapshot = store.snapshot()
        store.close()
        import dataclasses

        broken = dataclasses.replace(snapshot, store_path=None)
        with pytest.raises(ValueError, match="neither a layout nor a store path"):
            BucketStore.from_snapshot(broken)
