"""The Query Pre-Processor.

"Each incoming query is pre-processed to determine a list of sub-queries
which satisfy the following property: each sub-query operates on a single
bucket and can be processed in any order" (§3).  The pre-processor performs
that decomposition: for every cross-match object of the query it intersects
the object's HTM bounding range with the bucket boundaries of the partition
layout and assigns the object to every overlapping bucket (an object "may
overlap multiple buckets", §3.1 — no duplicate elimination is needed
because the join is on point data).

A query's objects arrive in HTM order, or close to it, so consecutive
objects nearly always fall in the same bucket.  The pre-processor keeps the
bucket the previous object fell in alone; an object inside that bucket's
extent joins it without a layout search (buckets are disjoint, so no other
bucket can overlap it), and any other object is looked up in the layout as
usual.  The result is the per-object lookup's: the same buckets in the same
first-touch order, and the same objects in the same order in each bucket
(``tests/core/preprocessor_oracle.py`` keeps that lookup as the oracle).

Abstract queries that already carry a bucket footprint (the scaled
experiment traces) pass through unchanged after validation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.storage.partitioner import PartitionLayout
from repro.workload.query import CrossMatchObject, CrossMatchQuery

#: Per-bucket assignment produced by pre-processing: either explicit objects
#: or a bare object count (abstract mode).
Assignment = Union[Dict[int, List[CrossMatchObject]], Dict[int, int]]


class QueryPreProcessor:
    """Splits cross-match queries into per-bucket sub-queries."""

    def __init__(self, layout: PartitionLayout) -> None:
        self.layout = layout

    def assign(self, query: CrossMatchQuery) -> Assignment:
        """Return the per-bucket workload of *query*.

        For explicit-object queries the result maps bucket index to the list
        of objects overlapping that bucket; for abstract queries it maps
        bucket index to the object count taken from the footprint.
        Raises ``ValueError`` when a footprint references a bucket outside
        the layout, which would silently lose work otherwise.
        """
        if query.bucket_footprint is not None and not query.objects:
            return self._validate_footprint(query)
        return self._assign_objects(query.objects)

    def _validate_footprint(self, query: CrossMatchQuery) -> Dict[int, int]:
        assert query.bucket_footprint is not None
        bucket_count = len(self.layout)
        invalid = [b for b in query.bucket_footprint if not 0 <= b < bucket_count]
        if invalid:
            raise ValueError(
                f"query {query.query_id} references buckets outside the layout: "
                f"{sorted(invalid)[:5]}"
            )
        return dict(query.bucket_footprint)

    def _assign_objects(
        self, objects: Sequence[CrossMatchObject]
    ) -> Dict[int, List[CrossMatchObject]]:
        assignments: Dict[int, List[CrossMatchObject]] = {}
        lows, highs = self.layout.lows, self.layout.highs
        indices_for_range = self.layout.bucket_indices_for_range
        # The run: the list of the last bucket an object fell in alone, and
        # that bucket's extent [run_low, run_high].  Buckets are disjoint,
        # so a range inside the extent overlaps that bucket and no other,
        # and is appended with no search.  The extent starts empty.
        run_append = None
        run_low, run_high = 1, 0
        for obj in objects:
            htm_range = obj.htm_range
            if run_low <= htm_range.low and htm_range.high <= run_high:
                run_append(obj)
                continue
            # An empty span: the object's bounding box falls outside the
            # partitioned table (e.g. outside the survey footprint); it
            # simply has no potential matches at this site.
            indices = indices_for_range(htm_range)
            for bucket_index in indices:
                assignments.setdefault(bucket_index, []).append(obj)
            if len(indices) == 1:
                bucket_index = indices[0]
                run_append = assignments[bucket_index].append
                run_low, run_high = lows[bucket_index], highs[bucket_index]
        return assignments

    def footprint(self, query: CrossMatchQuery) -> Dict[int, int]:
        """Per-bucket *object counts* of a query (whatever its representation)."""
        assignment = self.assign(query)
        footprint: Dict[int, int] = {}
        for bucket_index, payload in assignment.items():
            footprint[bucket_index] = payload if isinstance(payload, int) else len(payload)
        return footprint
