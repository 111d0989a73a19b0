"""Tests for HTM range arithmetic and cone covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import ids as htm_ids
from repro.htm.curve import HTMRange, HTMRangeSet, cone_cover, range_for_trixel
from repro.htm.geometry import SkyPoint
from repro.htm.mesh import HTMMesh


def ranges(max_value=10_000):
    return st.tuples(
        st.integers(min_value=0, max_value=max_value),
        st.integers(min_value=0, max_value=max_value),
    ).map(lambda pair: HTMRange(min(pair), max(pair)))


def covers(cover, htm_id):
    """Whether any range of *cover* holds *htm_id*."""
    return any(htm_id in r for r in cover)


def id_count(cover):
    """Total number of leaf IDs *cover* spans."""
    return sum(len(r) for r in cover)


class TestHTMRange:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            HTMRange(10, 5)

    def test_len_and_contains(self):
        r = HTMRange(10, 14)
        assert len(r) == 5
        assert 10 in r and 14 in r and 12 in r
        assert 9 not in r and 15 not in r

    @given(ranges(), ranges())
    def test_intersect_symmetry(self, a, b):
        assert a.intersect(b) == b.intersect(a)
        assert (a.intersect(b) is not None) == (a.low <= b.high and b.low <= a.high)

    @given(ranges(), ranges())
    def test_intersection_is_contained_in_both(self, a, b):
        overlap = a.intersect(b)
        if overlap is not None:
            assert overlap.low >= a.low and overlap.high <= a.high
            assert overlap.low >= b.low and overlap.high <= b.high

    def test_union_if_adjacent(self):
        assert HTMRange(0, 4).union_if_adjacent(HTMRange(5, 9)) == HTMRange(0, 9)
        assert HTMRange(0, 4).union_if_adjacent(HTMRange(6, 9)) is None


class TestHTMRangeSet:
    def test_normalisation_merges_overlaps_and_adjacency(self):
        cover = HTMRangeSet([HTMRange(5, 10), HTMRange(0, 4), HTMRange(8, 12), HTMRange(20, 25)])
        assert cover.ranges == (HTMRange(0, 12), HTMRange(20, 25))

    @given(st.lists(ranges(), max_size=10), st.lists(ranges(), max_size=10))
    @settings(max_examples=60)
    def test_intersection_membership(self, first, second):
        a, b = HTMRangeSet(first), HTMRangeSet(second)
        intersection = a.intersection(b)
        probes = {r.low for r in first} | {r.high for r in second} | {0, 1, 5000}
        for probe in probes:
            assert covers(intersection, probe) == (covers(a, probe) and covers(b, probe))

    def test_equality_and_repr(self):
        a = HTMRangeSet([HTMRange(0, 5)])
        b = HTMRangeSet([HTMRange(0, 3), HTMRange(4, 5)])
        assert a == b
        assert "HTMRangeSet" in repr(a)


class TestConeCover:
    @pytest.fixture(scope="class")
    def mesh(self):
        return HTMMesh()

    def test_cover_contains_points_inside_cone(self, mesh):
        center = SkyPoint(120.0, 25.0)
        cover = cone_cover(center, 2.0, cover_level=6, leaf_level=14, mesh=mesh)
        assert cover
        for d_ra, d_dec in [(0.0, 0.0), (1.0, 0.5), (-0.5, -1.0)]:
            inside = SkyPoint(center.ra + d_ra, center.dec + d_dec)
            leaf = mesh.locate(inside, 14)
            assert covers(cover, leaf)

    def test_cover_excludes_far_away_points(self, mesh):
        cover = cone_cover(SkyPoint(120.0, 25.0), 1.0, cover_level=7, leaf_level=14, mesh=mesh)
        far = mesh.locate(SkyPoint(300.0, -25.0), 14)
        assert not covers(cover, far)

    def test_larger_radius_gives_larger_cover(self, mesh):
        small = cone_cover(SkyPoint(10.0, 10.0), 0.5, cover_level=7, mesh=mesh)
        large = cone_cover(SkyPoint(10.0, 10.0), 5.0, cover_level=7, mesh=mesh)
        assert id_count(large) >= id_count(small)

    def test_negative_radius_rejected(self, mesh):
        with pytest.raises(ValueError):
            cone_cover(SkyPoint(0.0, 0.0), -1.0, mesh=mesh)

    def test_cover_level_validation(self, mesh):
        with pytest.raises(ValueError):
            cone_cover(SkyPoint(0.0, 0.0), 1.0, cover_level=15, leaf_level=14, mesh=mesh)

    def test_zero_radius_cover_contains_the_center_leaf(self, mesh):
        center = SkyPoint(45.0, 45.0)
        cover = cone_cover(center, 0.0, cover_level=7, mesh=mesh)
        assert covers(cover, mesh.locate(center, 14))

    def test_point_outside_radius_joins_a_wider_cover(self, mesh):
        center = SkyPoint(45.0, 45.0)
        outside = mesh.locate(SkyPoint(55.0, 45.0), 14)  # about 7 degrees away
        assert not covers(cone_cover(center, 1.0, cover_level=7, mesh=mesh), outside)
        assert covers(cone_cover(center, 10.0, cover_level=7, mesh=mesh), outside)

    def test_error_circle_cover_contains_object_leaf(self, mesh):
        point = SkyPoint(200.0, -30.0)
        cover = cone_cover(point, 3.0 / 3600.0, cover_level=10, mesh=mesh)
        assert covers(cover, mesh.locate(point, 14))


class TestRangeForTrixel:
    def test_range_for_trixel_matches_id_range(self):
        low, high = htm_ids.id_range_at_level(9, 14)
        assert range_for_trixel(9, 14) == HTMRange(low, high)
