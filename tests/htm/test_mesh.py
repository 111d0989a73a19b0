"""Tests for the hierarchical triangular mesh."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import ids as htm_ids
from repro.htm.geometry import SkyPoint, dot, radec_from_vector
from repro.htm.mesh import HTMMesh
from tests.htm.locate_oracle import OracleMesh, child_ids, triangle_contains
from tests.htm.separation_reference import angular_separation
from tests.htm.test_ids import htm_id_to_name

ras = st.floats(min_value=0.0, max_value=359.99)
decs = st.floats(min_value=-89.9, max_value=89.9)


def area_steradians(trixel):
    """Solid angle of a trixel's spherical triangle (L'Huilier's theorem).

    The check on the mesh's corners: the eight roots, and the four children
    of any trixel, must tile exactly the area they split.
    """
    c0, c1, c2 = trixel.corners
    a, b, c = (math.acos(max(-1.0, min(1.0, dot(u, v)))) for u, v in ((c1, c2), (c0, c2), (c0, c1)))
    s = 0.5 * (a + b + c)
    tan_term = (
        math.tan(0.5 * s)
        * math.tan(0.5 * (s - a))
        * math.tan(0.5 * (s - b))
        * math.tan(0.5 * (s - c))
    )
    return 4.0 * math.atan(math.sqrt(max(0.0, tan_term)))


@pytest.fixture(scope="module")
def mesh():
    return HTMMesh()


@pytest.fixture(scope="module")
def oracle():
    """The old memoising mesh: the tests' way from an HTM ID to its trixel."""
    return OracleMesh()


class TestRootFaces:
    def test_there_are_eight_roots(self, mesh):
        roots = mesh.root_trixels()
        assert len(roots) == 8
        assert sorted(t.htm_id for t in roots) == list(range(8, 16))

    def test_root_areas_cover_the_sphere(self, mesh):
        total = sum(area_steradians(t) for t in mesh.root_trixels())
        assert total == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_every_point_is_in_exactly_one_root(self, mesh):
        point = SkyPoint(123.0, 45.0)
        v = point.to_vector()
        containing = [t for t in mesh.root_trixels() if triangle_contains(t.corners, v)]
        assert len(containing) >= 1


class TestLocate:
    @given(ras, decs, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_located_id_has_requested_level(self, ra, dec, level):
        mesh = HTMMesh()
        htm_id = mesh.locate(SkyPoint(ra, dec), level)
        assert htm_ids.htm_level(htm_id) == level

    @given(ras, decs)
    @settings(max_examples=40, deadline=None)
    def test_located_trixel_contains_point(self, ra, dec):
        mesh = HTMMesh()
        point = SkyPoint(ra, dec)
        htm_id = mesh.locate(point, 8)
        trixel = OracleMesh().trixel(htm_id)
        axis, radius = trixel.circumcircle()
        axis_ra, axis_dec = radec_from_vector(axis)
        # The point must fall inside the trixel's bounding cone.
        assert angular_separation(ra, dec, axis_ra, axis_dec) <= radius + 1e-6

    @given(ras, decs)
    @settings(max_examples=40, deadline=None)
    def test_deeper_ids_refine_shallower_ids(self, ra, dec):
        mesh = HTMMesh()
        point = SkyPoint(ra, dec)
        shallow = mesh.locate(point, 5)
        deep = mesh.locate(point, 9)
        assert deep >> (2 * (9 - 5)) == shallow

    def test_negative_level_rejected(self, mesh):
        with pytest.raises(ValueError):
            mesh.locate(SkyPoint(0.0, 0.0), -1)

    def test_nearby_points_share_prefix(self, mesh):
        a = mesh.locate(SkyPoint(150.0, 30.0), 14)
        b = mesh.locate(SkyPoint(150.0001, 30.0001), 14)
        # Spatial locality: very close points agree at a coarse level.
        assert a >> (2 * (14 - 6)) == b >> (2 * (14 - 6))

    def test_cache_depth_does_not_change_located_ids(self, mesh):
        # The Trixel walk locate replaced, at any depth of its trixel memo,
        # finds the IDs the flat descent finds.
        points = [SkyPoint(10.0, 10.0), SkyPoint(200.0, -30.0), SkyPoint(359.5, 89.0)]
        for cache_levels in (0, 3, 10):
            other = OracleMesh(cache_levels=cache_levels)
            for point in points:
                for level in (0, 9, 14):
                    assert other.locate(point, level) == mesh.locate(point, level)

    def test_located_trixel_contains_its_point(self, mesh, oracle):
        for point in (SkyPoint(10.0, 10.0), SkyPoint(123.0, 45.0), SkyPoint(250.0, -60.0)):
            for level in (0, 4, 12):
                corners = oracle.trixel(mesh.locate(point, level)).corners
                assert triangle_contains(corners, point.to_vector())


class TestTrixels:
    def test_children_partition_parent_area(self, oracle):
        parent = oracle.trixel(9)
        child_area = sum(area_steradians(c) for c in parent.children())
        assert child_area == pytest.approx(area_steradians(parent), rel=1e-6)

    def test_trixels_at_level_enumeration(self, oracle):
        # Level 2 holds IDs 8 << 4 .. (16 << 4) - 1, in curve order.
        level2 = [oracle.trixel(htm_id) for htm_id in range(8 << 4, 16 << 4)]
        assert all(htm_ids.htm_level(t.htm_id) == 2 for t in level2)
        total_area = sum(area_steradians(t) for t in level2)
        assert total_area == pytest.approx(4.0 * math.pi, rel=1e-6)

    def test_trixel_lookup_matches_children(self, oracle):
        parent = oracle.trixel(12)
        for child in parent.children():
            looked_up = oracle.trixel(child.htm_id)
            for corner_a, corner_b in zip(looked_up.corners, child.corners):
                assert corner_a == pytest.approx(corner_b)

    def test_trixel_names(self, oracle):
        assert htm_id_to_name(oracle.trixel(8).htm_id) == "S0"
        assert htm_id_to_name(oracle.trixel(child_ids(15)[2]).htm_id) == "N32"
