"""Equal-sized bucket partitioning over the HTM curve.

LifeRaft partitions the fact table "into disjoint, equal-sized buckets in
which each bucket covers a set of triangles that are contiguous in the HTM
range" (§3.1).  Equal population (same number of objects per bucket) gives
uniform I/O cost per bucket, which is what makes a single ``Tb`` constant
meaningful.

Two partitioning modes are supported:

* :meth:`BucketPartitioner.partition_objects` — the real thing: sort the
  catalog by HTM ID and cut it into buckets of ``objects_per_bucket`` rows.
* :meth:`BucketPartitioner.partition_density` — the scaled simulation mode:
  given only a per-region density profile, produce the same
  :class:`PartitionLayout` without materialising hundreds of millions of
  rows.  The layout carries per-bucket object counts so the cost model and
  the workload generator behave identically in both modes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.htm import ids as htm_ids
from repro.htm.curve import HTMRange

#: Paper defaults: 10,000-object buckets of roughly 40 MB each.
DEFAULT_OBJECTS_PER_BUCKET = 10_000
DEFAULT_BUCKET_MEGABYTES = 40.0


@dataclass(frozen=True)
class BucketSpec:
    """Static description of one bucket of the partition layout.

    Attributes
    ----------
    index:
        Position of the bucket along the HTM curve (0-based); the paper's
        ``B_1 … B_n``.
    htm_range:
        Inclusive range of leaf-level HTM IDs covered by the bucket.
    object_count:
        Number of catalog objects stored in the bucket.
    megabytes:
        On-disk size used by the disk model when the bucket is read.
    """

    index: int
    htm_range: HTMRange
    object_count: int
    megabytes: float

    def contains_htm_id(self, htm_id: int) -> bool:
        """Return ``True`` when *htm_id* falls inside this bucket."""
        return htm_id in self.htm_range


class PartitionLayout:
    """The full list of buckets plus fast lookup from HTM ID to bucket."""

    def __init__(self, buckets: Sequence[BucketSpec], leaf_level: int) -> None:
        if not buckets:
            raise ValueError("a partition layout needs at least one bucket")
        expected = list(range(len(buckets)))
        if [b.index for b in buckets] != expected:
            raise ValueError("bucket indices must be consecutive starting at 0")
        lows = [b.htm_range.low for b in buckets]
        if lows != sorted(lows):
            raise ValueError("buckets must be ordered along the HTM curve")
        self._buckets: Tuple[BucketSpec, ...] = tuple(buckets)
        self._lows: List[int] = lows
        self.leaf_level = leaf_level

    @property
    def buckets(self) -> Tuple[BucketSpec, ...]:
        """All bucket specs in curve order."""
        return self._buckets

    def __getstate__(self) -> tuple:
        """Pickle as four columns, not one dataclass pair per bucket.

        A layout rides every :class:`~repro.parallel.ipc.ShardTask` of an
        in-memory run, and the coordinator pickles those one after the
        other: at 20,000 buckets the columns are a third of the bytes and
        a sixth of the ``dumps`` time of 40,000 objects.
        """
        buckets = self._buckets
        return (
            self.leaf_level,
            self._lows,
            [bucket.htm_range.high for bucket in buckets],
            [bucket.object_count for bucket in buckets],
            [bucket.megabytes for bucket in buckets],
        )

    def __setstate__(self, state: tuple) -> None:
        self.leaf_level, self._lows, highs, counts, megabytes = state
        self._buckets = tuple(
            BucketSpec(index, HTMRange(low, high), count, size)
            for index, (low, high, count, size) in enumerate(
                zip(self._lows, highs, counts, megabytes)
            )
        )

    def __eq__(self, other: object) -> bool:
        """Layouts are equal when every bucket spec and the level match.

        Used to validate that an on-disk store file describes the same
        site as a simulator's configured partition (bucket boundaries,
        counts and sizes all enter the cost model, so any drift would
        silently change measured numbers).
        """
        if not isinstance(other, PartitionLayout):
            return NotImplemented
        return self.leaf_level == other.leaf_level and self._buckets == other._buckets

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__` (specs are frozen dataclasses)."""
        return hash((self.leaf_level, self._buckets))

    def __len__(self) -> int:
        return len(self._buckets)

    def __iter__(self):
        return iter(self._buckets)

    def __getitem__(self, index: int) -> BucketSpec:
        return self._buckets[index]

    def bucket_for_htm_id(self, htm_id: int) -> BucketSpec:
        """Return the bucket containing *htm_id* (leaf-level ID)."""
        position = bisect.bisect_right(self._lows, htm_id) - 1
        if position < 0:
            raise KeyError(f"HTM ID {htm_id} precedes the first bucket")
        bucket = self._buckets[position]
        if htm_id > bucket.htm_range.high:
            raise KeyError(f"HTM ID {htm_id} falls in a gap after bucket {position}")
        return bucket

    def bucket_indices_for_range(self, htm_range: HTMRange) -> range:
        """Indices of the buckets whose extent overlaps *htm_range*, ascending.

        Two binary searches over the bucket lows, whatever the layout's
        size.  The overlapping buckets are consecutive: the walk starts at
        the last bucket that begins at or before the range (it overlaps
        unless it ends before the range begins, or there is no such
        bucket), and every later bucket beginning inside the range overlaps
        it.
        """
        lows = self._lows
        first = bisect.bisect_right(lows, htm_range.low) - 1
        if first < 0 or self._buckets[first].htm_range.high < htm_range.low:
            first += 1
        return range(first, bisect.bisect_right(lows, htm_range.high, first))

    def buckets_for_range(self, htm_range: HTMRange) -> List[BucketSpec]:
        """Return every bucket whose extent overlaps *htm_range*, in curve order."""
        indices = self.bucket_indices_for_range(htm_range)
        return list(self._buckets[indices.start : indices.stop])

    def total_objects(self) -> int:
        """Sum of the per-bucket object counts."""
        return sum(b.object_count for b in self._buckets)

    def total_megabytes(self) -> float:
        """Total on-disk size of the partitioned table."""
        return sum(b.megabytes for b in self._buckets)

    def describe(self) -> Dict[str, float]:
        """Summary statistics used by reports and sanity tests."""
        counts = [b.object_count for b in self._buckets]
        return {
            "bucket_count": float(len(self._buckets)),
            "total_objects": float(sum(counts)),
            "min_objects": float(min(counts)),
            "max_objects": float(max(counts)),
            "total_megabytes": self.total_megabytes(),
        }


class BucketPartitioner:
    """Builds :class:`PartitionLayout` objects.

    Parameters
    ----------
    objects_per_bucket:
        Target population of each bucket (paper default 10,000).
    bucket_megabytes:
        On-disk size charged for reading a full bucket (paper default 40 MB).
        When partitioning real objects the size is scaled proportionally for
        the final, partially filled bucket.
    leaf_level:
        HTM level of the IDs carried by the objects.
    """

    def __init__(
        self,
        objects_per_bucket: int = DEFAULT_OBJECTS_PER_BUCKET,
        bucket_megabytes: float = DEFAULT_BUCKET_MEGABYTES,
        leaf_level: int = htm_ids.SKYQUERY_LEVEL,
    ) -> None:
        if objects_per_bucket <= 0:
            raise ValueError("objects_per_bucket must be positive")
        if bucket_megabytes <= 0:
            raise ValueError("bucket_megabytes must be positive")
        self.objects_per_bucket = objects_per_bucket
        self.bucket_megabytes = bucket_megabytes
        self.leaf_level = leaf_level

    def partition_objects(self, htm_ids_sorted: Sequence[int]) -> PartitionLayout:
        """Partition a catalog given the **sorted** HTM IDs of its objects.

        Consecutive runs of ``objects_per_bucket`` IDs form one bucket; each
        bucket's HTM range extends from the midpoint with its predecessor to
        the midpoint with its successor so that every leaf ID maps to
        exactly one bucket with no gaps.
        """
        if not htm_ids_sorted:
            raise ValueError("cannot partition an empty catalog")
        if any(
            htm_ids_sorted[i] > htm_ids_sorted[i + 1]
            for i in range(len(htm_ids_sorted) - 1)
        ):
            raise ValueError("object HTM IDs must be sorted")
        curve_start = 8 << (2 * self.leaf_level)
        curve_end = (16 << (2 * self.leaf_level)) - 1

        buckets: List[BucketSpec] = []
        previous_high = curve_start - 1
        start = 0
        bucket_index = 0
        total = len(htm_ids_sorted)
        while start < total:
            end = min(start + self.objects_per_bucket, total)
            # Never split a run of equal HTM IDs across a bucket boundary —
            # bucket extents are ID ranges, so equal IDs must land together.
            if end < total:
                boundary_id = htm_ids_sorted[end - 1]
                while end < total and htm_ids_sorted[end] == boundary_id:
                    end += 1
            count = end - start
            if end < total:
                next_first_id = htm_ids_sorted[end]
                last_id = htm_ids_sorted[end - 1]
                # Split the gap between this bucket's last object and the next
                # bucket's first object down the middle, keeping the boundary
                # strictly before the next object's ID.
                high = last_id + max(0, (next_first_id - last_id) // 2)
                high = min(high, next_first_id - 1)
                high = max(high, previous_high + 1)
            else:
                high = curve_end
            low = previous_high + 1
            size = self.bucket_megabytes * (count / self.objects_per_bucket)
            buckets.append(BucketSpec(bucket_index, HTMRange(low, high), count, size))
            previous_high = high
            start = end
            bucket_index += 1
        return PartitionLayout(buckets, self.leaf_level)

    def partition_density(
        self,
        bucket_count: int,
        densities: Optional[Sequence[float]] = None,
        total_objects: Optional[int] = None,
    ) -> PartitionLayout:
        """Build a layout directly from a density profile (simulation mode).

        ``densities`` gives the *relative* amount of sky (curve length)
        consumed by each bucket; because buckets hold equal numbers of
        objects, a dense region produces narrow buckets and a sparse region
        wide ones.  When omitted, buckets are equal-width.
        """
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        if densities is not None and len(densities) != bucket_count:
            raise ValueError("densities must have one entry per bucket")
        if densities is not None and any(d <= 0 for d in densities):
            raise ValueError("densities must be positive")
        total = total_objects or bucket_count * self.objects_per_bucket
        per_bucket = total // bucket_count
        curve_start = 8 << (2 * self.leaf_level)
        curve_end = (16 << (2 * self.leaf_level)) - 1
        curve_length = curve_end - curve_start + 1
        if densities is None:
            weights = [1.0] * bucket_count
        else:
            # A *denser* region packs the same object count into *less* curve.
            weights = [1.0 / d for d in densities]
        weight_sum = sum(weights)

        buckets: List[BucketSpec] = []
        cursor = curve_start
        consumed = 0.0
        for index in range(bucket_count):
            consumed += weights[index]
            if index + 1 < bucket_count:
                high = curve_start + int(curve_length * consumed / weight_sum) - 1
                high = max(high, cursor)  # every bucket covers at least one ID
            else:
                high = curve_end
            count = (
                per_bucket if index < bucket_count - 1 else total - per_bucket * (bucket_count - 1)
            )
            size = self.bucket_megabytes * (count / self.objects_per_bucket)
            buckets.append(BucketSpec(index, HTMRange(cursor, high), count, size))
            cursor = high + 1
        return PartitionLayout(buckets, self.leaf_level)


def layout_from_ranges(
    ranges: Iterable[Tuple[int, int]],
    object_counts: Iterable[int],
    bucket_megabytes: float = DEFAULT_BUCKET_MEGABYTES,
    objects_per_bucket: int = DEFAULT_OBJECTS_PER_BUCKET,
    leaf_level: int = htm_ids.SKYQUERY_LEVEL,
) -> PartitionLayout:
    """Assemble a layout from explicit ``(low, high)`` ranges and counts."""
    buckets = []
    for index, ((low, high), count) in enumerate(zip(ranges, object_counts)):
        size = bucket_megabytes * (count / objects_per_bucket)
        buckets.append(BucketSpec(index, HTMRange(low, high), count, size))
    return PartitionLayout(buckets, leaf_level)
