"""Trace statistics: the workload characterisation of Figures 5 and 6.

The paper characterises the SkyQuery trace before presenting scheduling
results: Figure 5 plots, for each query in arrival order, which of the ten
most-reused buckets it touches (showing temporal locality), and Figure 6
plots the cumulative fraction of the total workload captured by buckets
ranked from largest to smallest workload (showing that ~2 % of buckets
carry ~50 % of the work).  :class:`TraceStatistics` computes both views
plus the headline scalar statistics quoted in the text.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.workload.query import CrossMatchQuery


def _footprint_of(query: CrossMatchQuery, layout=None) -> Mapping[int, int]:
    """Per-bucket object counts of a query.

    Abstract queries carry the footprint directly; explicit-object queries
    need a partition layout to map object HTM ranges onto buckets.
    """
    if query.bucket_footprint is not None:
        return query.bucket_footprint
    if layout is None:
        raise ValueError(
            f"query {query.query_id} has explicit objects; a PartitionLayout is "
            "required to compute its bucket footprint"
        )
    footprint: Dict[int, int] = {}
    for obj in query.objects:
        for bucket in layout.buckets_for_range(obj.htm_range):
            footprint[bucket.index] = footprint.get(bucket.index, 0) + 1
    return footprint


class TraceStatistics:
    """Aggregate statistics of a cross-match trace."""

    def __init__(self, queries: Sequence[CrossMatchQuery], layout=None) -> None:
        self.queries = list(queries)
        self._footprints: List[Mapping[int, int]] = [
            _footprint_of(q, layout) for q in self.queries
        ]
        self._bucket_workload: Counter = Counter()
        self._bucket_reuse: Counter = Counter()
        for footprint in self._footprints:
            for bucket, count in footprint.items():
                self._bucket_workload[bucket] += count
                self._bucket_reuse[bucket] += 1

    # ------------------------------------------------------------------ #
    # scalar summaries
    # ------------------------------------------------------------------ #

    @property
    def query_count(self) -> int:
        """Number of queries in the trace."""
        return len(self.queries)

    @property
    def touched_bucket_count(self) -> int:
        """Number of distinct buckets with any workload."""
        return len(self._bucket_workload)

    @property
    def total_objects(self) -> int:
        """Total number of cross-match objects (the total workload size)."""
        return sum(self._bucket_workload.values())

    def top_buckets_by_reuse(self, n: int = 10) -> List[Tuple[int, int]]:
        """The *n* buckets touched by the most queries, as (bucket, query count)."""
        return self._bucket_reuse.most_common(n)

    def fraction_of_queries_touching(self, buckets: Iterable[int]) -> float:
        """Fraction of queries whose footprint intersects *buckets*.

        The paper reports ~61 % for the top ten buckets by reuse.
        """
        bucket_set = set(buckets)
        if not self.queries:
            return 0.0
        touching = sum(
            1 for footprint in self._footprints if bucket_set.intersection(footprint)
        )
        return touching / len(self.queries)

    def fraction_of_workload_in_top_fraction(self, bucket_fraction: float) -> float:
        """Fraction of the workload carried by the top *bucket_fraction* of buckets.

        ``bucket_fraction`` is taken relative to the number of *touched*
        buckets.  The paper reports ~50 % of the workload in ~2 % of buckets.
        """
        if not 0.0 < bucket_fraction <= 1.0:
            raise ValueError("bucket_fraction must be in (0, 1]")
        total = self.total_objects
        if total == 0:
            return 0.0
        ranked = [count for _bucket, count in self._bucket_workload.most_common()]
        top_k = max(1, int(round(bucket_fraction * len(ranked))))
        return sum(ranked[:top_k]) / total

    # ------------------------------------------------------------------ #
    # figure series
    # ------------------------------------------------------------------ #

    def reuse_timeline(self, top_n: int = 10) -> List[Tuple[int, int]]:
        """Figure 5 series: (query number, bucket rank) hits on the top-*n* buckets.

        Bucket rank 1 is the most reused bucket.  A query contributes one
        point per top bucket it touches, exactly like the scatter in the
        paper.
        """
        top = [bucket for bucket, _count in self.top_buckets_by_reuse(top_n)]
        rank_of = {bucket: rank + 1 for rank, bucket in enumerate(top)}
        points: List[Tuple[int, int]] = []
        for query_number, footprint in enumerate(self._footprints, start=1):
            for bucket in footprint:
                rank = rank_of.get(bucket)
                if rank is not None:
                    points.append((query_number, rank))
        return points

    def cumulative_workload_curve(self) -> List[Tuple[int, float]]:
        """Figure 6 series: cumulative workload fraction by bucket rank.

        Buckets are ranked from largest to smallest workload; the curve
        gives, for rank *k*, the percentage of the total workload captured
        by the top *k* buckets.
        """
        total = self.total_objects
        curve: List[Tuple[int, float]] = []
        cumulative = 0
        for rank, (_bucket, count) in enumerate(self._bucket_workload.most_common(), start=1):
            cumulative += count
            curve.append((rank, 100.0 * cumulative / total))
        return curve

    def buckets_for_workload_fraction(self, workload_fraction: float) -> int:
        """Smallest number of buckets capturing *workload_fraction* of the work."""
        if not 0.0 < workload_fraction <= 1.0:
            raise ValueError("workload_fraction must be in (0, 1]")
        target = workload_fraction * self.total_objects
        cumulative = 0
        for rank, (_bucket, count) in enumerate(self._bucket_workload.most_common(), start=1):
            cumulative += count
            if cumulative >= target:
                return rank
        return self.touched_bucket_count

    def describe(self) -> Dict[str, float]:
        """Headline numbers used by the experiment reports."""
        top10 = [b for b, _ in self.top_buckets_by_reuse(10)]
        return {
            "queries": float(self.query_count),
            "touched_buckets": float(self.touched_bucket_count),
            "total_objects": float(self.total_objects),
            "fraction_queries_touching_top10": self.fraction_of_queries_touching(top10),
            "workload_fraction_in_top_2pct": self.fraction_of_workload_in_top_fraction(0.02),
        }
