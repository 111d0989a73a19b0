"""Tests for trace statistics (the Figure 5 / Figure 6 characterisation)."""

import pytest

from repro.htm.curve import HTMRange
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from repro.workload.stats import TraceStatistics


def abstract(query_id, footprint):
    return CrossMatchQuery(query_id=query_id, bucket_footprint=footprint)


@pytest.fixture()
def simple_stats():
    queries = [
        abstract(0, {0: 10, 1: 5}),
        abstract(1, {0: 20}),
        abstract(2, {2: 1}),
        abstract(3, {0: 5, 2: 5}),
    ]
    return TraceStatistics(queries)


class TestScalars:
    def test_counts(self, simple_stats):
        assert simple_stats.query_count == 4
        assert simple_stats.touched_bucket_count == 3
        assert simple_stats.total_objects == 46

    def test_top_buckets(self, simple_stats):
        assert simple_stats.top_buckets_by_reuse(1) == [(0, 3)]
        assert simple_stats.top_buckets_by_reuse() == [(0, 3), (2, 2), (1, 1)]

    def test_fraction_of_queries_touching(self, simple_stats):
        assert simple_stats.fraction_of_queries_touching([0]) == 0.75
        assert simple_stats.fraction_of_queries_touching([1, 2]) == 0.75
        assert simple_stats.fraction_of_queries_touching([7]) == 0.0

    def test_workload_fraction_in_top_fraction(self, simple_stats):
        # Top 1 of 3 buckets (fraction 0.34 rounds to rank 1) carries 35/46.
        assert simple_stats.fraction_of_workload_in_top_fraction(0.34) == pytest.approx(35 / 46)
        with pytest.raises(ValueError):
            simple_stats.fraction_of_workload_in_top_fraction(0.0)


class TestFigureSeries:
    def test_reuse_timeline_ranks_by_reuse(self, simple_stats):
        timeline = simple_stats.reuse_timeline(top_n=2)
        # Bucket 0 is rank 1, bucket 2 is rank 2.
        assert (1, 1) in timeline and (2, 1) in timeline and (4, 1) in timeline
        assert (3, 2) in timeline and (4, 2) in timeline
        assert all(rank in (1, 2) for _q, rank in timeline)

    def test_cumulative_curve_reaches_100_percent(self, simple_stats):
        curve = simple_stats.cumulative_workload_curve()
        assert curve[0] == (1, pytest.approx(100.0 * 35 / 46))
        assert curve[-1][1] == pytest.approx(100.0)
        percentages = [pct for _rank, pct in curve]
        assert percentages == sorted(percentages)

    def test_buckets_for_workload_fraction(self, simple_stats):
        assert simple_stats.buckets_for_workload_fraction(0.5) == 1
        assert simple_stats.buckets_for_workload_fraction(1.0) == 3

    def test_describe_keys(self, simple_stats):
        summary = simple_stats.describe()
        assert set(summary) == {
            "queries",
            "touched_buckets",
            "total_objects",
            "fraction_queries_touching_top10",
            "workload_fraction_in_top_2pct",
        }


class TestDegenerateTraces:
    """Statistics must stay total on empty and single-query traces."""

    def test_empty_trace(self):
        stats = TraceStatistics([])
        assert stats.query_count == 0
        assert stats.touched_bucket_count == 0
        assert stats.total_objects == 0
        assert stats.top_buckets_by_reuse(5) == []
        assert stats.fraction_of_queries_touching([0, 1]) == 0.0
        assert stats.fraction_of_workload_in_top_fraction(0.5) == 0.0
        assert stats.cumulative_workload_curve() == []
        summary = stats.describe()
        assert summary["queries"] == 0

    def test_single_query(self):
        stats = TraceStatistics([abstract(0, {3: 7})])
        assert stats.query_count == 1
        assert stats.touched_bucket_count == 1
        assert stats.total_objects == 7
        assert stats.fraction_of_queries_touching([3]) == 1.0
        assert stats.fraction_of_workload_in_top_fraction(1.0) == pytest.approx(1.0)
        assert stats.buckets_for_workload_fraction(1.0) == 1
        assert stats.cumulative_workload_curve() == [(1, pytest.approx(100.0))]

    def test_heavy_tail_trace_concentrates_workload(self):
        # One whale bucket plus many minnows: the top-fraction measure
        # must attribute nearly everything to the whale.
        queries = [abstract(0, {0: 10_000})] + [
            abstract(i, {i: 1}) for i in range(1, 101)
        ]
        stats = TraceStatistics(queries)
        assert stats.touched_bucket_count == 101
        share = stats.fraction_of_workload_in_top_fraction(0.01)
        assert share == pytest.approx(10_000 / 10_100)
        assert stats.buckets_for_workload_fraction(0.9) == 1

    def test_top_fraction_bounds_still_enforced_when_empty(self):
        stats = TraceStatistics([])
        with pytest.raises(ValueError):
            stats.fraction_of_workload_in_top_fraction(0.0)
        with pytest.raises(ValueError):
            stats.fraction_of_workload_in_top_fraction(1.5)


class TestExplicitObjectQueries:
    def test_layout_required_for_explicit_objects(self):
        query = CrossMatchQuery(
            query_id=1, objects=(CrossMatchObject(0, HTMRange(8 << 28, (8 << 28) + 10)),)
        )
        with pytest.raises(ValueError):
            TraceStatistics([query])

    def test_footprint_computed_through_layout(self):
        layout = BucketPartitioner(objects_per_bucket=100, leaf_level=14).partition_density(4)
        low = layout[1].htm_range.low
        query = CrossMatchQuery(
            query_id=1, objects=(CrossMatchObject(0, HTMRange(low, low + 5)),)
        )
        stats = TraceStatistics([query], layout=layout)
        assert stats.top_buckets_by_reuse() == [(1, 1)]
        assert stats.total_objects == 1
