"""The Bucket Cache.

"The Bucket Cache either reads an existing bucket from memory or executes a
range query to ask for the bucket from the database server.  (We use a
simple least recently used policy for cache replacement.)" — §4.  The
experiments fix the cache at 20 buckets and flush the DBMS buffer after
every bucket read so caching is managed here, independently of the
database server (§5).

:class:`BucketCacheManager` wraps the generic LRU cache with bucket-store
integration and the φ(i) probe the workload-throughput metric needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.storage.bucket_store import Bucket, BucketStore
from repro.storage.cache import LRUCache
from repro.telemetry.registry import MetricsRegistry

#: Cache size used throughout the paper's evaluation (§5).
PAPER_CACHE_BUCKETS = 20


@dataclass
class CacheLoadResult:
    """Outcome of asking the cache for a bucket."""

    bucket: Bucket
    io_cost_ms: float
    hit: bool


class BucketCacheManager:
    """LRU cache of bucket images backed by a :class:`BucketStore`."""

    def __init__(
        self,
        store: BucketStore,
        capacity: int = PAPER_CACHE_BUCKETS,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self._cache: LRUCache[int, Bucket] = LRUCache(capacity)
        self.telemetry: Optional[MetricsRegistry] = None
        self._t_hits = None
        self._t_misses = None
        self._t_bucket_reads = None
        self._t_read_ms = None
        self._t_read_mb = None
        if telemetry is not None:
            self.bind_telemetry(telemetry)

    def bind_telemetry(self, registry: MetricsRegistry) -> None:
        """Attach a registry; the load path resolves its metrics once here.

        All cache/read counters live in the virtual domain: hit/miss
        sequences and charged read costs are pure functions of the
        admitted arrival schedule, so they are backend-invariant.
        """
        self.telemetry = registry
        self._t_hits = registry.counter("cache.hits")
        self._t_misses = registry.counter("cache.misses")
        self._t_bucket_reads = registry.counter("store.bucket_reads")
        self._t_read_ms = registry.counter("store.read_ms")
        self._t_read_mb = registry.counter("store.read_mb")

    def resident(self, bucket_index: int) -> bool:
        """The φ(i) probe: is the bucket in memory?  (No side effects.)"""
        return self._cache.contains(bucket_index)

    def resident_buckets(self) -> Tuple[int, ...]:
        """Bucket indices currently cached, least recently used first."""
        return self._cache.keys_by_recency()

    def load(self, bucket_index: int) -> CacheLoadResult:
        """Return the bucket, reading it from the store on a miss.

        On a hit the I/O cost is zero (the whole point of data-driven
        scheduling); on a miss the store charges the sequential read cost
        and the bucket becomes the most recently used entry, possibly
        evicting another.
        """
        cached = self._cache.get(bucket_index)
        if cached is not None:
            if self._t_hits is not None:
                self._t_hits.inc()
            return CacheLoadResult(cached, 0.0, hit=True)
        read = self.store.read_bucket(bucket_index)
        self._cache.put(bucket_index, read.bucket)
        if self._t_misses is not None:
            self._t_misses.inc()
            self._t_bucket_reads.inc()
            self._t_read_ms.inc(read.cost_ms)
            self._t_read_mb.inc(self.store.layout[bucket_index].megabytes)
        return CacheLoadResult(read.bucket, read.cost_ms, hit=False)

    def restore(
        self, resident: Sequence[int], statistics: Mapping[str, float]
    ) -> None:
        """Rebuild the cache at a checkpointed state (crash recovery).

        *resident* lists bucket indices least-to-most recently used (the
        shape :meth:`resident_buckets` returns); each image is
        re-materialised from the store without charging virtual I/O, and
        the hit/miss counters resume from their checkpointed values so the
        tail of a recovered run produces the exact hit/miss sequence — and
        the exact lifetime hit rate — of an uninterrupted one.
        """
        self._cache.clear()
        for bucket_index in resident:
            self._cache.seed(bucket_index, self.store.bucket_image(bucket_index))
        self._cache.statistics.restore(dict(statistics))

    def clear(self) -> None:
        """Flush the cache entirely."""
        self._cache.clear()

    def statistics(self) -> Dict[str, float]:
        """Hit/miss counters; the §6 discussion quotes 40 % vs 7 % hit rates."""
        return self._cache.statistics.snapshot()

    @property
    def hit_rate(self) -> float:
        """Fraction of loads served from memory."""
        return self._cache.statistics.hit_rate
