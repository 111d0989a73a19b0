"""Tests for the bucket cache manager (LRU over the bucket store)."""

import pytest

from repro.core.bucket_cache import BucketCacheManager, PAPER_CACHE_BUCKETS
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.partitioner import BucketPartitioner


@pytest.fixture()
def store():
    layout = BucketPartitioner(objects_per_bucket=100, bucket_megabytes=40.0).partition_density(8)
    return BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))


class TestBucketCacheManager:
    def test_paper_default_capacity_is_twenty(self, store):
        assert BucketCacheManager(store).capacity == PAPER_CACHE_BUCKETS == 20

    def test_miss_then_hit(self, store):
        cache = BucketCacheManager(store, capacity=2)
        first = cache.load(0)
        assert not first.hit
        assert first.io_cost_ms == pytest.approx(1200.0)
        second = cache.load(0)
        assert second.hit
        assert second.io_cost_ms == 0.0
        assert cache.hit_rate == pytest.approx(0.5)
        assert store.reads == 1

    def test_resident_probe_has_no_side_effects(self, store):
        cache = BucketCacheManager(store, capacity=2)
        assert not cache.resident(3)
        cache.load(3)
        assert cache.resident(3)
        stats = cache.statistics()
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_lru_eviction_of_buckets(self, store):
        cache = BucketCacheManager(store, capacity=2)
        cache.load(0)
        cache.load(1)
        cache.load(0)  # refresh 0, so 1 becomes the eviction victim
        cache.load(2)
        assert cache.resident(0) and cache.resident(2)
        assert not cache.resident(1)
        assert cache.resident_buckets() == (0, 2)

    def test_clear(self, store):
        cache = BucketCacheManager(store, capacity=4)
        for bucket in range(3):
            cache.load(bucket)
        cache.clear()
        assert cache.resident_buckets() == ()

    def test_reload_after_clear_pays_io_again(self, store):
        cache = BucketCacheManager(store, capacity=2)
        cache.load(5)
        cache.clear()
        reload = cache.load(5)
        assert not reload.hit
        assert store.reads == 2
