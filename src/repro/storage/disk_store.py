"""A file-backed bucket store: real I/O under the paper's cost model.

:class:`DiskBucketStore` satisfies the :class:`~repro.storage.bucket_store.
BucketStore` read interface against a columnar ``.lrbs`` file (see
:mod:`repro.storage.format`): every bucket read performs a physical seek,
a sequential page read, a CRC check and a columnar decode — while still
charging the analytical disk model's virtual-clock cost, so all
deterministic numbers are identical to the in-memory store's.

Caching is tiered:

* **Tier 1** is the engine-side LRU bucket cache
  (:class:`~repro.core.bucket_cache.BucketCacheManager`) — a hit there
  never reaches this store, exactly as before.
* **Tier 2** is the optional :class:`DecodedPageCache` below — decoded
  bucket images keyed by ``(file generation, bucket index)``.  A tier-2
  hit skips the physical read and decode (real wall-clock work) but still
  charges the full virtual sequential-read cost: the paper's model says a
  tier-1 miss pays ``Tb``, and the virtual clock must not depend on which
  physical tier happened to serve the bytes.  The generation key makes a
  shared cache safe across stores and re-ingests: pages decoded from an
  older file version can never be served against a newer one.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.storage.bucket_store import Bucket, BucketStore, StoreSnapshot
from repro.storage.cache import LRUCache
from repro.storage.disk_model import DiskModel
from repro.storage.format import BucketFileReader, StoreManifest
from repro.storage.partitioner import BucketSpec
from repro.telemetry.registry import REAL_DOMAIN, MetricsRegistry

#: Default tier-2 capacity (decoded bucket images).  Sized like the paper's
#: bucket cache so the two tiers describe the same working set by default.
DEFAULT_PAGE_CACHE_BUCKETS = 20


class DecodedPageCache:
    """LRU of decoded bucket pages keyed by ``(generation, bucket_index)``.

    One instance may be shared by several :class:`DiskBucketStore`\\ s (the
    generation key keeps entries disjoint per file version); each store
    defaults to a private one.
    """

    def __init__(self, capacity: int = DEFAULT_PAGE_CACHE_BUCKETS) -> None:
        self._cache: LRUCache[Tuple[str, int], Bucket] = LRUCache(capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of decoded bucket images held."""
        return self._cache.capacity

    @property
    def resident_count(self) -> int:
        """Decoded bucket images currently held (tier-2 occupancy)."""
        return len(self._cache)

    def get(self, generation: str, bucket_index: int) -> Optional[Bucket]:
        """Return the cached decoded bucket, updating recency; ``None`` on miss."""
        return self._cache.get((generation, bucket_index))

    def put(self, generation: str, bucket_index: int, bucket: Bucket) -> None:
        """Insert one decoded bucket image."""
        self._cache.put((generation, bucket_index), bucket)

    def statistics(self) -> Dict[str, float]:
        """Hit/miss counters of the decoded-page tier."""
        return self._cache.statistics.snapshot()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without touching the file."""
        return self._cache.statistics.hit_rate


class DiskBucketStore(BucketStore):
    """Serves bucket reads by seeking into a columnar store file.

    Parameters
    ----------
    path:
        The ``.lrbs`` file to open (read-only).  The partition layout is
        reconstructed from the file's directory.
    disk:
        Analytical disk model charged per read (virtual-clock cost); the
        physical read time is measured separately in
        :attr:`real_read_s`.
    page_cache:
        Tier-2 decoded-page cache.  ``None`` builds a private cache of
        :data:`DEFAULT_PAGE_CACHE_BUCKETS` buckets; pass a shared
        :class:`DecodedPageCache` to pool decoding across stores, or
        capacity ``0`` via :func:`open_disk_store` to disable the tier.
    expected_generation:
        When given, the opened file's generation must match — the process
        backend uses this so a worker child never silently reads a file
        that was re-ingested after the coordinator snapshotted it.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        disk: Optional[DiskModel] = None,
        page_cache: Optional[DecodedPageCache] = None,
        expected_generation: Optional[str] = None,
    ) -> None:
        self._reader = BucketFileReader(path)
        if expected_generation is not None and self._reader.generation != expected_generation:
            actual = self._reader.generation
            self._reader.close()
            raise ValueError(
                f"bucket store {os.fspath(path)!r} has generation {actual}, "
                f"expected {expected_generation} (re-ingested since snapshot?)"
            )
        super().__init__(self._reader.layout, disk)
        self.path = os.fspath(path)
        self.page_cache = page_cache if page_cache is not None else DecodedPageCache()
        #: Cumulative wall-clock seconds spent in physical reads + decoding.
        self.real_read_s = 0.0
        #: Physical page reads that reached the file (tier-2 misses).
        self.page_reads = 0
        #: Real-domain registry: physical I/O is wall-clock profile, never
        #: asserted in parity tests (two identical specs legitimately
        #: differ here).  Merged once per store object at run level.
        self.telemetry = MetricsRegistry()
        self._t_page_reads = self.telemetry.counter("disk.page_reads", domain=REAL_DOMAIN)
        self._t_real_read_s = self.telemetry.counter("disk.real_read_s", domain=REAL_DOMAIN)
        self._t_decode_mb = self.telemetry.counter("disk.decode_mb", domain=REAL_DOMAIN)
        self._t_page_cache_hits = self.telemetry.counter(
            "disk.page_cache_hits", domain=REAL_DOMAIN
        )

    @property
    def generation(self) -> str:
        """The opened file's content-derived generation."""
        return self._reader.generation

    def manifest(self) -> StoreManifest:
        """Describe the backing file."""
        return self._reader.manifest()

    def _materialise(self, spec: BucketSpec) -> Bucket:
        generation = self._reader.generation
        if self.page_cache.capacity > 0:
            cached = self.page_cache.get(generation, spec.index)
            if cached is not None:
                self._t_page_cache_hits.inc()
                return cached
        started = time.perf_counter()
        # Zero-copy decode: the bucket carries column casts over the mmap
        # and never materialises row objects unless a consumer asks.
        bucket = Bucket(spec, columns=self._reader.read_bucket_block(spec.index))
        elapsed = time.perf_counter() - started
        self.real_read_s += elapsed
        self.page_reads += 1
        self._t_page_reads.inc()
        self._t_real_read_s.inc(elapsed)
        self._t_decode_mb.inc(spec.megabytes)
        if self.page_cache.capacity > 0:
            self.page_cache.put(generation, spec.index, bucket)
        return bucket

    def snapshot(self) -> StoreSnapshot:
        """A path-based snapshot: workers reopen the file instead of
        receiving its rows in a pickle, which keeps IPC task payloads small
        and lets every process do its own physical I/O."""
        return StoreSnapshot(
            layout=None,
            disk_parameters=self.disk.parameters,
            store_path=self.path,
            generation=self._reader.generation,
            page_cache_buckets=self.page_cache.capacity,
        )

    def statistics(self) -> Dict[str, float]:
        """Read counters plus the physical-tier accounting."""
        stats = super().statistics()
        stats.update(
            {
                "page_reads": float(self.page_reads),
                "real_read_s": self.real_read_s,
                "page_cache_hit_rate": self.page_cache.hit_rate,
            }
        )
        return stats

    def close(self) -> None:
        """Release the underlying file handle.

        Context-manager support comes from the :class:`BucketStore` base
        class, which makes every store tier uniformly ``with``-able.
        """
        self._reader.close()


def open_disk_store(
    path: str | os.PathLike,
    disk: Optional[DiskModel] = None,
    page_cache_buckets: int = DEFAULT_PAGE_CACHE_BUCKETS,
    expected_generation: Optional[str] = None,
) -> DiskBucketStore:
    """Open a store file, building the tier-2 cache from a capacity knob.

    ``page_cache_buckets=0`` disables the decoded-page tier entirely (every
    tier-1 miss performs a physical read — the configuration the storage
    benchmarks use to measure raw read throughput).
    """
    cache = DecodedPageCache(page_cache_buckets) if page_cache_buckets > 0 else _NullPageCache()
    return DiskBucketStore(
        path, disk, page_cache=cache, expected_generation=expected_generation
    )


class _NullPageCache(DecodedPageCache):
    """A disabled tier-2: every lookup misses, nothing is retained."""

    def __init__(self) -> None:  # capacity 0 is not a valid LRUCache size
        pass

    @property
    def capacity(self) -> int:
        return 0

    @property
    def resident_count(self) -> int:
        return 0

    def get(self, generation: str, bucket_index: int) -> Optional[Bucket]:
        return None

    def put(self, generation: str, bucket_index: int, bucket: Bucket) -> None:
        return None

    def statistics(self) -> Dict[str, float]:
        return {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0, "hit_rate": 0.0}

    @property
    def hit_rate(self) -> float:
        return 0.0


__all__ = [
    "DEFAULT_PAGE_CACHE_BUCKETS",
    "DecodedPageCache",
    "DiskBucketStore",
    "open_disk_store",
]
