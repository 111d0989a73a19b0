"""Storage substrate: the "database server" underneath LifeRaft.

The paper runs on SQL Server over a 15-disk array; scheduling behaviour,
however, depends only on the *relative* costs of the storage operations:

* reading a 40 MB bucket sequentially from disk (``Tb``, measured 1.2 s),
* matching one object against an in-memory bucket (``Tm``, 0.13 ms), and
* probing a spatial index (a handful of random I/Os per object).

This package provides those pieces as explicit, testable components: an
analytical :class:`~repro.storage.disk_model.DiskModel`, a generic LRU cache, an
equal-population bucket partitioner over the HTM curve, a bucket store that
answers HTM range queries the way the DBMS does for the bucket cache, and a
sorted spatial index with probe-cost accounting for the hybrid join and the
index-only baseline.

Since PR 4 the package also contains a real I/O subsystem: a columnar
on-disk bucket format (:mod:`repro.storage.format`), ingest paths that
materialise generated catalogs to disk (:mod:`repro.storage.ingest`), and
a file-backed :class:`~repro.storage.disk_store.DiskBucketStore` that
memory-maps the store file and decodes bucket pages into zero-copy
:class:`~repro.storage.format.ColumnBlock` columns per bucket service
while charging the same virtual-clock costs as the in-memory store —
with an optional decoded-page cache tier under the engine-side LRU
bucket cache.

``__all__`` below is the package's supported public API; anything not
named here is an internal seam that may change without notice.  The
analytical cost model lives in :mod:`repro.storage.disk_model`.
"""

from repro.storage.bucket_store import Bucket, BucketStore, StoreSnapshot
from repro.storage.cache import CacheStatistics, LRUCache
from repro.storage.disk_model import DiskModel, DiskParameters
from repro.storage.disk_store import (
    DEFAULT_PAGE_CACHE_BUCKETS,
    DecodedPageCache,
    DiskBucketStore,
    open_disk_store,
)
from repro.storage.format import (
    BucketFileReader,
    BucketFileWriter,
    ColumnBlock,
    StoreManifest,
    read_layout,
)
from repro.storage.index import IndexProbeResult, SpatialIndex
from repro.storage.ingest import (
    DEFAULT_ROWS_PER_BUCKET,
    ingest_catalog,
    materialize_layout,
)
from repro.storage.partitioner import BucketPartitioner, BucketSpec, PartitionLayout

__all__ = [
    # analytical cost model
    "DiskModel",
    "DiskParameters",
    # caches
    "LRUCache",
    "CacheStatistics",
    "DecodedPageCache",
    "DEFAULT_PAGE_CACHE_BUCKETS",
    # partitioning
    "BucketPartitioner",
    "BucketSpec",
    "PartitionLayout",
    # stores
    "BucketStore",
    "Bucket",
    "StoreSnapshot",
    "DiskBucketStore",
    "open_disk_store",
    # on-disk format
    "BucketFileReader",
    "BucketFileWriter",
    "ColumnBlock",
    "StoreManifest",
    "read_layout",
    # ingest
    "DEFAULT_ROWS_PER_BUCKET",
    "ingest_catalog",
    "materialize_layout",
    # index
    "SpatialIndex",
    "IndexProbeResult",
]
