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
from typing import Dict, Optional

from repro.storage.disk_model import DiskModel, DiskParameters
from repro.storage.format import ColumnBlock
from repro.storage.partitioner import BucketSpec, PartitionLayout


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
      inside the pickle;
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
    #: Expected file generation; restoring fails cleanly on a mismatch.
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

    @property
    def generation(self) -> str:
        """Content-derived identity of the served partition.

        File-backed stores override this with the store file's directory
        digest; the in-memory store derives an equivalent digest from its
        layout so checkpoints (which are only valid against the exact
        store they were captured over) can be generation-bound on every
        storage tier.
        """
        cached = getattr(self, "_generation", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(struct.pack("<IQ", self.layout.leaf_level, len(self.layout)))
        for index in range(len(self.layout)):
            spec = self.layout[index]
            digest.update(
                struct.pack(
                    "<QQQd",
                    spec.htm_range.low,
                    spec.htm_range.high,
                    spec.object_count,
                    spec.megabytes,
                )
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
        """Capture a read-only image of this store for another process."""
        return StoreSnapshot(layout=self.layout, disk_parameters=self.disk.parameters)

    @classmethod
    def from_snapshot(cls, snapshot: StoreSnapshot) -> "BucketStore":
        """Rebuild an equivalent store from a :class:`StoreSnapshot`.

        The restored store charges the same costs as the original (same
        disk parameters, no I/O trace) but owns fresh read counters, so
        per-process accounting can be summed by the coordinator.  A
        path-based snapshot restores as a file-backed
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
        return cls(snapshot.layout, DiskModel(snapshot.disk_parameters))

    def read_bucket(self, bucket_index: int, charge_io: bool = True) -> BucketReadResult:
        """Execute the range query for bucket *bucket_index*.

        Returns the bucket image and the sequential-read cost.  ``charge_io``
        can be disabled by callers that account for I/O themselves (the
        NoShare baseline charges per query rather than per distinct bucket).
        """
        spec = self.layout[bucket_index]
        cost = 0.0
        if charge_io:
            cost = self.disk.bucket_read_ms(spec.megabytes, label=f"bucket:{bucket_index}")
        self.reads += 1
        self.bytes_read_mb += spec.megabytes
        return BucketReadResult(self._materialise(spec), cost, from_disk=True)

    def bucket_image(self, bucket_index: int) -> Bucket:
        """Return the bucket image without charging any I/O (for tests)."""
        return self._materialise(self.layout[bucket_index])

    def _materialise(self, spec: BucketSpec) -> Bucket:
        return Bucket(spec)

    def statistics(self) -> Dict[str, float]:
        """Aggregate read counters (used by the experiment reports)."""
        return {
            "bucket_reads": float(self.reads),
            "megabytes_read": self.bytes_read_mb,
        }
