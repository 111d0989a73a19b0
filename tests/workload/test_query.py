"""Tests for the cross-match query model."""

import pytest

from repro.htm.curve import HTMRange
from repro.htm.geometry import SkyPoint
from repro.workload.query import CrossMatchObject, CrossMatchQuery, QueryStatus


class TestCrossMatchObject:
    def test_position_property(self):
        with_position = CrossMatchObject(1, HTMRange(0, 10), ra=10.0, dec=-5.0)
        without_position = CrossMatchObject(2, HTMRange(0, 10))
        assert with_position.position == SkyPoint(10.0, -5.0)
        assert without_position.position is None


class TestCrossMatchQuery:
    def test_requires_objects_or_footprint(self):
        with pytest.raises(ValueError):
            CrossMatchQuery(query_id=1)

    def test_footprint_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            CrossMatchQuery(query_id=1, bucket_footprint={0: 0})

    def test_object_count_from_objects_and_footprint(self):
        explicit = CrossMatchQuery(
            query_id=1,
            objects=(CrossMatchObject(0, HTMRange(0, 1)), CrossMatchObject(1, HTMRange(2, 3))),
        )
        abstract = CrossMatchQuery(query_id=2, bucket_footprint={0: 10, 4: 7})
        assert explicit.object_count == 2
        assert abstract.object_count == 17

    def test_with_arrival_time_copies(self):
        query = CrossMatchQuery(query_id=1, bucket_footprint={0: 5}, arrival_time_s=1.0)
        shifted = query.with_arrival_time(9.0)
        assert shifted.arrival_time_s == 9.0
        assert query.arrival_time_s == 1.0
        assert shifted.bucket_footprint == query.bucket_footprint
        assert shifted.bucket_footprint is not query.bucket_footprint

    def test_default_status_is_pending(self):
        query = CrossMatchQuery(query_id=1, bucket_footprint={0: 5})
        assert query.status is QueryStatus.PENDING
