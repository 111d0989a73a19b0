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
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

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


class PartitionLayout:
    """The bucket layout as four columns, plus fast lookup from HTM ID to bucket.

    Bucket ``i`` covers the leaf IDs ``lows[i]`` to ``highs[i]``, holds
    ``counts[i]`` objects and is charged ``megabytes[i]`` per read.  The
    buckets are disjoint and in curve order (``highs[i] < lows[i + 1]``);
    gaps between them are allowed.  The columns are the whole state,
    read-only by contract.  ``highs`` and ``counts`` are ``array("Q")`` and
    ``megabytes`` is ``array("d")``; ``lows`` is a list, because
    :meth:`bucket_indices_for_range` bisects it for each query object that
    leaves its predecessor's bucket, and a bisect over an array boxes an
    int at every probe.  ``layout[i]`` builds bucket ``i``'s :class:`BucketSpec`
    on first access and memoises it, so a 20,000-bucket layout costs its
    user only the specs it touches.
    """

    def __init__(
        self,
        lows: Sequence[int],
        highs: Sequence[int],
        counts: Sequence[int],
        megabytes: Sequence[float],
        leaf_level: int,
    ) -> None:
        if not lows:
            raise ValueError("a partition layout needs at least one bucket")
        if not len(lows) == len(highs) == len(counts) == len(megabytes):
            raise ValueError("layout columns must have one entry per bucket")
        for index, (low, high) in enumerate(zip(lows, highs)):
            if low > high:
                raise ValueError(f"bucket {index} has an empty HTM range [{low}, {high}]")
        if any(low > after for low, after in zip(lows, lows[1:])):
            raise ValueError("buckets must be ordered along the HTM curve")
        # Buckets are disjoint (§3.1): a leaf ID two buckets claimed would be
        # looked up in one of them only.
        for index, (high, after) in enumerate(zip(highs, lows[1:])):
            if high >= after:
                raise ValueError(
                    f"buckets {index} and {index + 1} overlap: bucket {index} ends at "
                    f"{high}, bucket {index + 1} begins at {after}"
                )
        self.__setstate__(
            (
                leaf_level,
                list(lows),
                array("Q", highs),
                array("Q", counts),
                array("d", megabytes),
            )
        )

    def __getstate__(self) -> tuple:
        """Pickle the columns as they are: arrays pickle as their raw bytes.

        A layout rides every :class:`~repro.parallel.ipc.ShardTask` of an
        in-memory run, so each cold boot, warm reuse and crash respawn
        unpickles it; at 20,000 buckets that is three buffer copies and one
        list of ints, not 40,000 spec and range objects rebuilt.
        """
        return (self.leaf_level, self.lows, self.highs, self.counts, self.megabytes)

    def __setstate__(self, state: tuple) -> None:
        self.leaf_level, self.lows, self.highs, self.counts, self.megabytes = state
        self._specs: List[Optional[BucketSpec]] = [None] * len(self.lows)

    def __eq__(self, other: object) -> bool:
        """Layouts are equal when every column and the level match.

        Used to validate that an on-disk store file describes the same
        site as a simulator's configured partition (bucket boundaries,
        counts and sizes all enter the cost model, so any drift would
        silently change measured numbers).
        """
        if not isinstance(other, PartitionLayout):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__`."""
        return hash((self.leaf_level, *map(tuple, self.__getstate__()[1:])))

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[BucketSpec]:
        return map(self.__getitem__, range(len(self._specs)))

    def __getitem__(self, index: int) -> BucketSpec:
        """Bucket *index*'s spec, with tuple indexing (negative, ``IndexError``)."""
        spec = self._specs[index]
        if spec is None:
            index %= len(self._specs)
            spec = self._specs[index] = BucketSpec(
                index,
                HTMRange(self.lows[index], self.highs[index]),
                self.counts[index],
                self.megabytes[index],
            )
        return spec

    def bucket_indices_for_range(self, htm_range: HTMRange) -> range:
        """Indices of the buckets whose extent overlaps *htm_range*, ascending.

        Two binary searches over the bucket lows, whatever the layout's
        size.  The overlapping buckets are consecutive: the walk starts at
        the last bucket that begins at or before the range (it overlaps
        unless it ends before the range begins, or there is no such
        bucket), and every later bucket beginning inside the range overlaps
        it.
        """
        lows = self.lows
        first = bisect.bisect_right(lows, htm_range.low) - 1
        if first < 0 or self.highs[first] < htm_range.low:
            first += 1
        return range(first, bisect.bisect_right(lows, htm_range.high, first))

    def buckets_for_range(self, htm_range: HTMRange) -> List[BucketSpec]:
        """Return every bucket whose extent overlaps *htm_range*, in curve order."""
        return [self[index] for index in self.bucket_indices_for_range(htm_range)]

    def total_objects(self) -> int:
        """Sum of the per-bucket object counts."""
        return sum(self.counts)


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

        highs: List[int] = []
        counts: List[int] = []
        previous_high = curve_start - 1
        start = 0
        total = len(htm_ids_sorted)
        while start < total:
            end = min(start + self.objects_per_bucket, total)
            # Never split a run of equal HTM IDs across a bucket boundary —
            # bucket extents are ID ranges, so equal IDs must land together.
            if end < total:
                boundary_id = htm_ids_sorted[end - 1]
                while end < total and htm_ids_sorted[end] == boundary_id:
                    end += 1
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
            highs.append(high)
            counts.append(end - start)
            previous_high = high
            start = end
        return self._tiling(highs, counts)

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

        highs: List[int] = []
        cursor = curve_start
        consumed = 0.0
        for index in range(bucket_count):
            consumed += weights[index]
            if index + 1 < bucket_count:
                high = curve_start + int(curve_length * consumed / weight_sum) - 1
                high = max(high, cursor)  # every bucket covers at least one ID
            else:
                high = curve_end
            highs.append(high)
            cursor = high + 1
        counts = [per_bucket] * (bucket_count - 1) + [total - per_bucket * (bucket_count - 1)]
        return self._tiling(highs, counts)

    def _tiling(self, highs: List[int], counts: List[int]) -> PartitionLayout:
        """The layout whose buckets tile the curve: each begins one past its predecessor.

        A bucket is charged its share of a full bucket's megabytes.
        """
        lows = [8 << (2 * self.leaf_level)] + [high + 1 for high in highs[:-1]]
        megabytes = [self.bucket_megabytes * (count / self.objects_per_bucket) for count in counts]
        return PartitionLayout(lows, highs, counts, megabytes, self.leaf_level)
