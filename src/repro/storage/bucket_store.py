"""Bucket store: the database server behind the bucket cache.

The Bucket Cache in the LifeRaft architecture (§4) "either reads an
existing bucket from memory or executes a range query to ask for the
bucket from the database server".  :class:`BucketStore` plays the part of
that database server.  It owns the partition layout and serves count-only
buckets: the scaled experiments never match individual base-table rows,
because the cost model only needs counts.  Full fidelity — real rows,
really joined — means a ``.lrbs`` store
(:class:`~repro.storage.disk_store.DiskBucketStore`), whose buckets carry
column blocks.

Reading a bucket always charges the sequential-scan cost to the disk
model, which is how ``Tb`` enters the simulation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

from repro.storage.disk_model import DiskModel, DiskParameters
from repro.storage.format import ColumnBlock
from repro.storage.partitioner import BucketSpec, PartitionLayout

#: One bucket's share of the in-memory generation digest: low, high, count, megabytes.
_GENERATION_ENTRY = struct.Struct("<QQQd")


class Bucket:
    """An image of one bucket, as handed to the join evaluator.

    A bucket is its :class:`~repro.storage.partitioner.BucketSpec` plus,
    when it was read from a ``.lrbs`` store, a zero-copy
    :class:`~repro.storage.format.ColumnBlock` (``columns``) — casts over
    the reader's mmap that the crossmatch kernels evaluate in place.  The
    in-memory store's buckets carry counts only (``columns`` is ``None``).
    """

    __slots__ = ("spec", "columns")

    def __init__(self, spec: BucketSpec, columns: Optional[ColumnBlock] = None) -> None:
        self.spec = spec
        #: Decoded column block; ``None`` for count-only buckets.
        self.columns = columns

    @property
    def index(self) -> int:
        """Bucket position along the HTM curve."""
        return self.spec.index

    @property
    def object_count(self) -> int:
        """Number of objects the bucket holds on disk."""
        return self.spec.object_count

    def __repr__(self) -> str:
        rows = "counts only" if self.columns is None else f"rows={len(self.columns)}"
        return f"Bucket(index={self.spec.index}, {rows})"


@dataclass
class BucketReadResult:
    """A bucket image together with the I/O cost paid to obtain it."""

    bucket: Bucket
    cost_ms: float
    from_disk: bool


@dataclass(frozen=True)
class StoreSnapshot:
    """A read-only, picklable image of a :class:`BucketStore`.

    The snapshot carries everything a worker process needs to rebuild an
    equivalent store without sharing any mutable state with the parent.
    Two variants exist:

    * **in-memory** — the partition layout and the disk parameters travel
      inside the pickle; the layout is its four columns, so a worker
      unpickles a 20,000-bucket site without building a spec per bucket.
      ``generation`` is the store's generation when the snapshotted store
      had derived it (a reliability run's coordinator does), so each
      restoring worker is seeded with it instead of re-hashing the layout;
    * **path-based** (``store_path`` set) — only the file path, its
      expected generation and the disk parameters travel; the restoring
      process reopens the columnar store file read-only and does its own
      physical I/O.  This keeps :class:`~repro.parallel.ipc.ShardTask`
      pickles small whatever the store holds.

    Each process that restores a snapshot gets its own read counters and
    its own (trace-disabled) disk model, mirroring N database servers
    over one immutable archive.
    """

    #: ``None`` for path-based snapshots (the file carries the layout).
    layout: Optional[PartitionLayout]
    disk_parameters: "DiskParameters"
    #: Path to a columnar ``.lrbs`` store file (path-based variant).
    store_path: Optional[str] = None
    #: Path-based: the expected file generation; restoring fails cleanly on
    #: a mismatch.  In-memory: the layout's generation, if already derived.
    generation: Optional[str] = None
    #: Tier-2 decoded-page cache capacity for the restored store.
    page_cache_buckets: int = 0


class BucketStore:
    """Serves bucket reads against the partitioned fact table.

    Parameters
    ----------
    layout:
        The partition layout (bucket boundaries, counts, sizes).
    disk:
        Disk model charged for each read.
    """

    def __init__(self, layout: PartitionLayout, disk: Optional[DiskModel] = None) -> None:
        self.layout = layout
        self.disk = disk or DiskModel()
        self.reads = 0
        self.bytes_read_mb = 0.0
        self._generation: Optional[str] = None

    @property
    def generation(self) -> str:
        """Content-derived identity of the served partition.

        File-backed stores override this with the store file's directory
        digest; the in-memory store derives an equivalent digest from its
        layout so checkpoints (which are only valid against the exact
        store they were captured over) can be generation-bound on every
        storage tier.  The digest is derived on first use (or seeded by
        :meth:`from_snapshot`), so a run that never checkpoints never
        hashes the layout.
        """
        if self._generation is not None:
            return self._generation
        layout = self.layout
        columns = (layout.lows, layout.highs, layout.counts, layout.megabytes)
        entries = map(_GENERATION_ENTRY.pack, *columns)
        digest = hashlib.sha256(
            b"".join([struct.pack("<IQ", layout.leaf_level, len(layout)), *entries])
        )
        self._generation = digest.hexdigest()[:16]
        return self._generation

    def close(self) -> None:
        """Release any backing resources (no-op for the in-memory store).

        Defined on the base class so every store is usable as a context
        manager: the simulator opens stores per run inside ``with`` blocks
        and a failed run can never leak a file descriptor.
        """

    def __enter__(self) -> "BucketStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> StoreSnapshot:
        """Capture a read-only image of this store for another process.

        The image carries the generation only if it was already derived.
        """
        return StoreSnapshot(
            layout=self.layout, disk_parameters=self.disk.parameters, generation=self._generation
        )

    @classmethod
    def from_snapshot(cls, snapshot: StoreSnapshot) -> "BucketStore":
        """Rebuild an equivalent store from a :class:`StoreSnapshot`.

        The restored store charges the same costs as the original (same
        disk parameters) but owns fresh read counters, so per-process
        accounting can be summed by the coordinator.  A path-based
        snapshot restores as a file-backed
        :class:`~repro.storage.disk_store.DiskBucketStore` opened
        read-only against the snapshot's generation.
        """
        if snapshot.store_path is not None:
            from repro.storage.disk_store import open_disk_store

            return open_disk_store(
                snapshot.store_path,
                DiskModel(snapshot.disk_parameters),
                page_cache_buckets=snapshot.page_cache_buckets,
                expected_generation=snapshot.generation,
            )
        if snapshot.layout is None:
            raise ValueError("snapshot carries neither a layout nor a store path")
        store = cls(snapshot.layout, DiskModel(snapshot.disk_parameters))
        store._generation = snapshot.generation
        return store

    def read_bucket(self, bucket_index: int, charge_io: bool = True) -> BucketReadResult:
        """Execute the range query for bucket *bucket_index*.

        Returns the bucket image and the sequential-read cost.  ``charge_io``
        can be disabled by callers that account for I/O themselves (the
        NoShare baseline charges per query rather than per distinct bucket).
        """
        spec = self.layout[bucket_index]
        cost = 0.0
        if charge_io:
            cost = self.disk.bucket_read_ms(spec.megabytes)
        self.reads += 1
        self.bytes_read_mb += spec.megabytes
        return BucketReadResult(self._materialise(spec), cost, from_disk=True)

    def bucket_image(self, bucket_index: int) -> Bucket:
        """Return the bucket image without charging any I/O (a cache restore seeds it)."""
        return self._materialise(self.layout[bucket_index])

    def _materialise(self, spec: BucketSpec) -> Bucket:
        return Bucket(spec)
