"""Ingest: materialise catalogs (real or synthetic) as bucket store files.

Two ingest paths cover the two partitioning modes of the reproduction:

* :func:`ingest_catalog` — the real thing: partition a generated
  :class:`~repro.catalog.objects.CatalogTable` into equal-population
  buckets and write every row, HTM-sorted, into the columnar file.  This
  is the path the full-fidelity examples and the round-trip tests use.
* :func:`materialize_layout` — the scaled-experiment path: take a
  density-derived :class:`~repro.storage.partitioner.PartitionLayout`
  (whose buckets carry counts, not rows) and synthesise a bounded number
  of deterministic physical rows per bucket, as columns (no row objects).
  The layout's cost-model numbers (``object_count``, ``megabytes``) are
  written unchanged, so a file-backed run charges exactly the virtual-clock
  costs of the in-memory run while every bucket service performs real
  seeks, reads, checksum verification and columnar decoding.

Both return the :class:`~repro.storage.format.StoreManifest` of the
written file.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.catalog.objects import CatalogTable
from repro.storage.format import BucketFileWriter, StoreManifest, encode_columns
from repro.storage.partitioner import (
    DEFAULT_BUCKET_MEGABYTES,
    DEFAULT_OBJECTS_PER_BUCKET,
    BucketPartitioner,
    BucketSpec,
    PartitionLayout,
)

#: Default cap on physical rows written per bucket when materialising a
#: density layout.  Real I/O work per bucket service stays meaningful
#: (kilobytes of packed columns to read and decode) while whole-site files
#: stay tens of megabytes instead of the archive's terabytes.  Columnar
#: synthesis writes 1,024 such pages in about half a second on one core.
DEFAULT_ROWS_PER_BUCKET = 512


def ingest_catalog(
    path: str | os.PathLike,
    table: CatalogTable,
    objects_per_bucket: int = DEFAULT_OBJECTS_PER_BUCKET,
    bucket_megabytes: float = DEFAULT_BUCKET_MEGABYTES,
    leaf_level: Optional[int] = None,
) -> StoreManifest:
    """Partition *table* into equal-population buckets and write them all.

    The resulting file is exact: every row of the catalog appears in its
    bucket's page, HTM-sorted, and the reconstructed layout is identical
    to what :meth:`BucketPartitioner.partition_objects` returns for the
    same catalog.
    """
    if len(table) == 0:
        raise ValueError("cannot ingest an empty catalog")
    kwargs = {} if leaf_level is None else {"leaf_level": leaf_level}
    partitioner = BucketPartitioner(
        objects_per_bucket=objects_per_bucket,
        bucket_megabytes=bucket_megabytes,
        **kwargs,
    )
    layout = partitioner.partition_objects(list(table.htm_ids))
    writer = BucketFileWriter(path, layout)
    try:
        cursor = 0
        for spec in layout:
            end = cursor + spec.object_count
            writer.append_bucket(table.htm_ids[cursor:end], table.rows[cursor:end])
            cursor = end
        return writer.finish()
    except BaseException:
        writer.abort()
        raise


#: The survey name every synthesised row carries.
SYNTHETIC_SURVEY = "synthetic"


def synthesize_bucket_columns(spec: BucketSpec, rows: int, seed: int = 0) -> Tuple[List, ...]:
    """Deterministic physical rows for one count-only bucket, as the columns
    ``(htm_ids, object_ids, ra, dec, magnitude)``.

    HTM IDs are spread evenly over the bucket's curve range (ascending, so
    pages stay merge-join ready); positions and magnitudes are cheap
    arithmetic functions of the ID and the seed.  The rows exist to give
    file-backed runs real bytes to move and decode — the scaled workload
    never inspects them (its queries carry count footprints, not objects).
    """
    if rows < 0:
        raise ValueError("rows must be non-negative")
    low, high = spec.htm_range.low, spec.htm_range.high
    span = high - low + 1
    divisor = max(rows, 1)
    htm_ids = [low + (i * span) // divisor for i in range(rows)]
    salt = seed * 97
    mixes = [(htm_id * 2654435761 + salt + i) & 0xFFFFFFFF for i, htm_id in enumerate(htm_ids)]
    # Bucket-scoped base keeps IDs unique across buckets even when row
    # counts vary per bucket (partial final buckets).
    base = spec.index << 32
    return (
        htm_ids,
        [base | i for i in range(rows)],
        [(mix % 3_600_000) / 10_000.0 for mix in mixes],
        [((mix >> 12) % 1_600_000) / 10_000.0 - 80.0 for mix in mixes],
        [14.0 + (mix % 8_000) / 1_000.0 for mix in mixes],
    )


def encode_synthetic_page(spec: BucketSpec, rows: int, seed: int) -> Tuple[bytes, Tuple[str, ...]]:
    """One bucket's synthesised page and the survey dictionary it uses (every
    row is code 0, :data:`SYNTHETIC_SURVEY`; an empty page names no survey)."""
    page = encode_columns(*synthesize_bucket_columns(spec, rows, seed), bytes(rows))
    return page, ((SYNTHETIC_SURVEY,) if rows else ())


def materialize_layout(
    path: str | os.PathLike,
    layout: PartitionLayout,
    rows_per_bucket: Optional[int] = DEFAULT_ROWS_PER_BUCKET,
    seed: int = 0,
) -> StoreManifest:
    """Write a density layout to disk with synthesised physical rows.

    Each bucket's page holds ``min(object_count, rows_per_bucket)``
    deterministic rows (``rows_per_bucket=None`` materialises every
    counted object).  The directory records the layout's *original*
    object counts and megabytes, so the cost model — and therefore every
    virtual-clock number — is unchanged relative to the in-memory store.
    """
    if rows_per_bucket is not None and rows_per_bucket < 0:
        raise ValueError("rows_per_bucket must be non-negative")
    writer = BucketFileWriter(path, layout)
    try:
        for spec in layout:
            count = spec.object_count
            if rows_per_bucket is not None:
                count = min(count, rows_per_bucket)
            page, surveys = encode_synthetic_page(spec, count, seed)
            writer.append_encoded(page, count, surveys)
        return writer.finish()
    except BaseException:
        writer.abort()
        raise


__all__ = [
    "DEFAULT_ROWS_PER_BUCKET",
    "encode_synthetic_page",
    "ingest_catalog",
    "materialize_layout",
    "synthesize_bucket_columns",
]
