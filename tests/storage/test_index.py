"""Tests for the spatial index and its probe-cost accounting."""

import pytest

from repro.htm.curve import HTMRange, HTMRangeSet
from repro.storage.disk_model import DiskModel
from repro.storage.index import SpatialIndex


def build_index(count=1000, with_disk=True):
    ids = list(range(10_000, 10_000 + count))
    rows = [f"row-{i}" for i in range(count)]
    disk = DiskModel() if with_disk else None
    return SpatialIndex(ids, rows=rows, disk=disk), ids, rows


class TestConstruction:
    def test_unsorted_ids_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex([3, 1, 2])

    def test_misaligned_rows_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex([1, 2, 3], rows=["a"])

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex([1], rows_per_page=0)

    def test_empty_index(self):
        index = SpatialIndex([])
        assert len(index) == 0
        assert index.height == 1
        result = index.probe_range(HTMRange(0, 10))
        assert result.row_count == 0


class TestProbes:
    def test_range_probe_returns_matching_rows(self):
        index, ids, rows = build_index()
        result = index.probe_range(HTMRange(10_010, 10_019))
        assert result.rows == tuple(rows[10:20])
        assert result.pages_read >= 1
        assert result.cost_ms > 0
        assert index.probes == 1

    def test_probe_outside_index_returns_nothing(self):
        index, _, _ = build_index()
        result = index.probe_range(HTMRange(0, 5))
        assert result.row_count == 0
        # Even an empty probe pays the tree descent.
        assert result.pages_read >= index.height

    def test_larger_results_touch_more_pages(self):
        index, _, _ = build_index()
        small = index.probe_range(HTMRange(10_000, 10_004))
        large = index.probe_range(HTMRange(10_000, 10_500))
        assert large.pages_read > small.pages_read
        assert large.cost_ms > small.cost_ms

    def test_probe_ranges_merges_covers(self):
        index, _, rows = build_index()
        cover = HTMRangeSet([HTMRange(10_000, 10_004), HTMRange(10_100, 10_104)])
        result = index.probe_ranges(cover)
        assert result.rows == tuple(rows[0:5] + rows[100:105])

    def test_count_range_is_free(self):
        index, _, _ = build_index()
        assert index.count_range(HTMRange(10_000, 10_009)) == 10
        assert index.probes == 0

    def test_no_disk_means_zero_cost(self):
        index, _, _ = build_index(with_disk=False)
        assert index.probe_range(HTMRange(10_000, 10_010)).cost_ms == 0.0
        assert index.estimated_probe_cost_ms(100) == 0.0

    def test_estimated_cost_tracks_expected_rows(self):
        index, _, _ = build_index()
        assert index.estimated_probe_cost_ms(1000) > index.estimated_probe_cost_ms(10)
