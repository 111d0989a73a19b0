"""Tests for the query pre-processor (query → per-bucket sub-queries)."""

import random

import pytest

from repro.core.preprocessor import QueryPreProcessor
from repro.htm.curve import HTMRange
from repro.storage.partitioner import BucketPartitioner, layout_from_ranges
from repro.workload.query import CrossMatchObject, CrossMatchQuery

LEAF_LEVEL = 8
CURVE_START = 8 << (2 * LEAF_LEVEL)


@pytest.fixture(scope="module")
def layout():
    # Four equal-width buckets over the whole curve.
    return BucketPartitioner(objects_per_bucket=100, leaf_level=LEAF_LEVEL).partition_density(4)


@pytest.fixture(scope="module")
def preprocessor(layout):
    return QueryPreProcessor(layout)


def obj(object_id, low, high):
    return CrossMatchObject(object_id=object_id, htm_range=HTMRange(low, high))


class TestExplicitObjects:
    def test_object_assigned_to_containing_bucket(self, preprocessor, layout):
        first_bucket = layout[0]
        query = CrossMatchQuery(
            query_id=1,
            objects=(obj(0, first_bucket.htm_range.low, first_bucket.htm_range.low + 5),),
        )
        assignment = preprocessor.assign(query)
        assert set(assignment.keys()) == {0}
        assert len(assignment[0]) == 1

    def test_object_spanning_two_buckets_is_duplicated(self, preprocessor, layout):
        boundary = layout[0].htm_range.high
        query = CrossMatchQuery(query_id=2, objects=(obj(0, boundary - 1, boundary + 2),))
        assignment = preprocessor.assign(query)
        assert set(assignment.keys()) == {0, 1}
        # The same object appears in both buckets (no duplicate elimination
        # is needed because the spatial join is on point data, §3.1).
        assert assignment[0][0].object_id == assignment[1][0].object_id == 0

    def test_footprint_counts_objects_per_bucket(self, preprocessor, layout):
        low = layout[2].htm_range.low
        query = CrossMatchQuery(
            query_id=3,
            objects=(
                obj(0, low, low + 1),
                obj(1, low + 2, low + 3),
                obj(2, layout[3].htm_range.low, layout[3].htm_range.low),
            ),
        )
        footprint = preprocessor.footprint(query)
        assert footprint == {2: 2, 3: 1}

    def test_batch_footprint_aggregates_queries(self, preprocessor, layout):
        low = layout[1].htm_range.low
        queries = [
            CrossMatchQuery(query_id=i, objects=(obj(0, low, low + 1),)) for i in range(3)
        ]
        assert preprocessor.batch_footprint(queries) == {1: 3}

    def test_assignment_order_is_first_touch_order(self):
        """Same buckets, same objects per bucket, same dict insertion order
        as assigning each object to a scan of the layout, one at a time —
        over a layout with a gap and objects outside or straddling it."""
        rng = random.Random(11)
        lows = [CURVE_START + 100 * i for i in range(8)]
        layout = layout_from_ranges(
            [(low, low + (59 if i == 3 else 99)) for i, low in enumerate(lows)],
            [10] * 8,
            leaf_level=LEAF_LEVEL,
        )
        objects = []
        for object_id in range(400):
            low = CURVE_START - 50 + rng.randrange(0, 950)
            objects.append(obj(object_id, low, low + rng.choice([0, 3, 40, 120, 400])))
        expected = {}
        for candidate in objects:
            for bucket in layout:
                if bucket.htm_range.overlaps(candidate.htm_range):
                    expected.setdefault(bucket.index, []).append(candidate)
        assignment = QueryPreProcessor(layout).assign(CrossMatchQuery(5, objects=tuple(objects)))
        assert list(assignment.items()) == list(expected.items())
        assert sum(len(v) for v in assignment.values()) > len(objects)  # duplicates happened
        assert any(not layout.buckets_for_range(o.htm_range) for o in objects)  # and misses


class TestAbstractQueries:
    def test_footprint_passes_through(self, preprocessor):
        query = CrossMatchQuery(query_id=10, bucket_footprint={0: 5, 3: 7})
        assert preprocessor.assign(query) == {0: 5, 3: 7}
        assert preprocessor.footprint(query) == {0: 5, 3: 7}

    def test_out_of_range_bucket_rejected(self, preprocessor):
        query = CrossMatchQuery(query_id=11, bucket_footprint={99: 5})
        with pytest.raises(ValueError):
            preprocessor.assign(query)
