"""Tests for the query pre-processor (query → per-bucket sub-queries)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocessor import QueryPreProcessor
from repro.htm.curve import HTMRange
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from tests.core.preprocessor_oracle import assign_per_object
from tests.storage.test_partitioner import gappy_layouts, layout_from_ranges

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

        def scan(candidates):
            expected = {}
            for candidate in candidates:
                for bucket in layout:
                    if bucket.htm_range.intersect(candidate.htm_range) is not None:
                        expected.setdefault(bucket.index, []).append(candidate)
            return list(expected.items())

        assignment = QueryPreProcessor(layout).assign(CrossMatchQuery(5, objects=tuple(objects)))
        assert list(assignment.items()) == scan(objects)
        assert sum(len(v) for v in assignment.values()) > len(objects)  # duplicates happened
        assert any(not layout.buckets_for_range(o.htm_range) for o in objects)  # and misses

        # The same objects in HTM order and reversed: runs inside one bucket,
        # and runs that cross the gap and the bucket edges, search the layout
        # only for an object the previous lone object's bucket does not hold.
        searches = []
        lookup = layout.bucket_indices_for_range
        layout.bucket_indices_for_range = lambda htm_range: searches.append(1) or lookup(
            htm_range
        )
        in_htm_order = sorted(objects, key=lambda o: o.htm_range)
        for ordered in (in_htm_order, in_htm_order[::-1]):
            assert list(assign_per_object(layout, ordered).items()) == scan(ordered)
            searches.clear()
            query = CrossMatchQuery(6, objects=tuple(ordered))
            assert list(QueryPreProcessor(layout).assign(query).items()) == scan(ordered)
            assert len(searches) < len(objects)  # the oracle searches once per object


@st.composite
def object_runs(draw, layout):
    """Objects in runs around *layout*: HTM-sorted, reversed or jittered.

    A run starts at a bucket edge or anywhere from before the first bucket
    to past the last, so runs cross bucket edges and gaps; widths mix
    points, short boxes and straddlers as wide as several buckets.  Each
    run's jitter and widths come from a drawn seed, which keeps the
    strategy cheap enough for hundreds of examples.
    """
    edges = list(layout.lows) + list(layout.highs)
    first, last = layout.lows[0], layout.highs[-1]
    objects = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        anchor = draw(
            st.one_of(st.sampled_from(edges), st.integers(first - 300, last + 300))
        )
        start = anchor + draw(st.integers(-40, 40))
        count = draw(st.integers(min_value=1, max_value=40))
        step = draw(st.integers(min_value=0, max_value=12))
        order = draw(st.sampled_from(["sorted", "reversed", "jittered"]))
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
        jitter = 8 if order == "jittered" else 0
        run = []
        for i in range(count):
            low = start + i * step + rng.randint(-jitter, jitter)
            width = rng.randint(0, 3) if rng.random() < 0.5 else rng.randint(0, 600)
            run.append(obj(len(objects) + i, low, low + width))
        objects.extend(run[::-1] if order == "reversed" else run)
    return objects


class TestRunAssignment:
    @settings(max_examples=300, deadline=None)
    @given(layout=gappy_layouts(), data=st.data())
    def test_equals_the_per_object_oracle(self, layout, data):
        """Same keys in the same order, the same objects (by identity) in each."""
        objects = data.draw(object_runs(layout))
        query = CrossMatchQuery(7, objects=tuple(objects))
        assignment = QueryPreProcessor(layout).assign(query)
        expected = assign_per_object(layout, objects)
        assert [(b, list(map(id, objs))) for b, objs in assignment.items()] == [
            (b, list(map(id, objs))) for b, objs in expected.items()
        ]


class TestAbstractQueries:
    def test_footprint_passes_through(self, preprocessor):
        query = CrossMatchQuery(query_id=10, bucket_footprint={0: 5, 3: 7})
        assert preprocessor.assign(query) == {0: 5, 3: 7}
        assert preprocessor.footprint(query) == {0: 5, 3: 7}

    def test_out_of_range_bucket_rejected(self, preprocessor):
        query = CrossMatchQuery(query_id=11, bucket_footprint={99: 5})
        with pytest.raises(ValueError):
            preprocessor.assign(query)
