"""Tests for the LRU cache, including property-based replacement checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import CacheStatistics, LRUCache


class TestBasics:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert len(cache) == 1
        assert "a" in cache

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        evicted = cache.put("c", 3)
        assert evicted == ("b", 2)
        assert cache.contains("a") and cache.contains("c") and not cache.contains("b")

    def test_put_existing_key_refreshes_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is None
        assert cache.keys_by_recency() == ("b", "a")
        assert cache.get("a") == 10

    def test_contains_has_no_side_effects(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.contains("a")
        # "a" is still least recently used, so it gets evicted next.
        cache.put("c", 3)
        assert not cache.contains("a")
        # And statistics were not perturbed by contains.
        assert cache.statistics.hits == 0
        assert cache.statistics.misses == 0

    def test_clear(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0


class TestStatistics:
    def test_hit_rate_accounting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        stats = cache.statistics
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.accesses == 3
        snapshot = stats.snapshot()
        assert snapshot["hits"] == 2 and snapshot["evictions"] == 0

    def test_empty_statistics(self):
        assert CacheStatistics().hit_rate == 0.0


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
    )
    @settings(max_examples=80)
    def test_capacity_never_exceeded_and_recent_keys_present(self, capacity, keys):
        cache = LRUCache(capacity)
        for key in keys:
            cache.put(key, key)
            assert len(cache) <= capacity
        # The most recently inserted distinct keys must be resident.
        recent_distinct = []
        for key in reversed(keys):
            if key not in recent_distinct:
                recent_distinct.append(key)
            if len(recent_distinct) == capacity:
                break
        for key in recent_distinct:
            assert cache.contains(key)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_unbounded_capacity_never_evicts(self, keys):
        cache = LRUCache(1000)
        for key in keys:
            cache.put(key, key)
        assert cache.statistics.evictions == 0
        assert len(cache) == len(set(keys))
