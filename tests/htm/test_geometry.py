"""Unit and property tests for spherical geometry primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.geometry import (
    SkyPoint,
    angular_separation,
    cross,
    dot,
    midpoint,
    normalize,
    radec_from_vector,
    triangle_circumcircle,
    triangle_contains,
    unit_vector,
)

ras = st.floats(min_value=0.0, max_value=359.999)
decs = st.floats(min_value=-89.0, max_value=89.0)


class TestSkyPoint:
    def test_ra_is_normalised_into_range(self):
        assert SkyPoint(370.0, 10.0).ra == pytest.approx(10.0)
        assert SkyPoint(-30.0, 10.0).ra == pytest.approx(330.0)

    def test_invalid_declination_rejected(self):
        with pytest.raises(ValueError):
            SkyPoint(10.0, 91.0)
        with pytest.raises(ValueError):
            SkyPoint(10.0, -90.5)

    def test_separation_is_zero_to_self(self):
        point = SkyPoint(123.4, -21.0)
        assert point.separation(point) == pytest.approx(0.0, abs=1e-9)

    def test_separation_between_poles_is_180(self):
        north = SkyPoint(0.0, 90.0)
        south = SkyPoint(0.0, -90.0)
        assert north.separation(south) == pytest.approx(180.0)


class TestUnitVector:
    def test_reference_directions(self):
        assert unit_vector(0.0, 0.0) == pytest.approx((1.0, 0.0, 0.0))
        assert unit_vector(90.0, 0.0) == pytest.approx((0.0, 1.0, 0.0))
        assert unit_vector(0.0, 90.0) == pytest.approx((0.0, 0.0, 1.0))

    @given(ras, decs)
    def test_vectors_have_unit_length(self, ra, dec):
        x, y, z = unit_vector(ra, dec)
        assert math.sqrt(x * x + y * y + z * z) == pytest.approx(1.0, abs=1e-12)

    @given(ras, decs)
    def test_roundtrip_through_vector(self, ra, dec):
        back_ra, back_dec = radec_from_vector(unit_vector(ra, dec))
        assert back_dec == pytest.approx(dec, abs=1e-8)
        # RA is undefined at the poles; compare via separation instead.
        assert angular_separation(ra, dec, back_ra, back_dec) == pytest.approx(0.0, abs=1e-8)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            radec_from_vector((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            normalize((0.0, 0.0, 0.0))


class TestAngularSeparation:
    def test_known_separation_along_equator(self):
        assert angular_separation(10.0, 0.0, 35.0, 0.0) == pytest.approx(25.0)

    def test_small_separation_precision(self):
        # One arcsecond apart in declination.
        sep = angular_separation(100.0, 20.0, 100.0, 20.0 + 1.0 / 3600.0)
        assert sep * 3600.0 == pytest.approx(1.0, rel=1e-6)

    @given(ras, decs, ras, decs)
    def test_symmetry_and_bounds(self, ra1, dec1, ra2, dec2):
        forward = angular_separation(ra1, dec1, ra2, dec2)
        backward = angular_separation(ra2, dec2, ra1, dec1)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert 0.0 <= forward <= 180.0 + 1e-9

    @given(ras, decs, ras, decs, ras, decs)
    @settings(max_examples=50)
    def test_triangle_inequality(self, ra1, dec1, ra2, dec2, ra3, dec3):
        ab = angular_separation(ra1, dec1, ra2, dec2)
        bc = angular_separation(ra2, dec2, ra3, dec3)
        ac = angular_separation(ra1, dec1, ra3, dec3)
        assert ac <= ab + bc + 1e-7


class TestTriangleGeometry:
    def _octant(self):
        return (unit_vector(0, 0), unit_vector(90, 0), unit_vector(0, 90))

    def test_triangle_contains_interior_point(self):
        corners = self._octant()
        assert triangle_contains(corners, unit_vector(45.0, 30.0))

    def test_triangle_excludes_opposite_point(self):
        corners = self._octant()
        assert not triangle_contains(corners, unit_vector(225.0, -45.0))

    def test_circumcircle_covers_corners(self):
        corners = self._octant()
        axis, radius = triangle_circumcircle(corners)
        for corner in corners:
            separation = math.degrees(math.acos(max(-1.0, min(1.0, dot(axis, corner)))))
            assert separation <= radius + 1e-9

    def test_midpoint_is_unit_and_between(self):
        a, b = unit_vector(0, 0), unit_vector(90, 0)
        m = midpoint(a, b)
        assert math.sqrt(dot(m, m)) == pytest.approx(1.0)
        ra, dec = radec_from_vector(m)
        assert ra == pytest.approx(45.0)
        assert dec == pytest.approx(0.0, abs=1e-9)

    def test_cross_product_orthogonality(self):
        a, b = unit_vector(10, 20), unit_vector(80, -30)
        c = cross(a, b)
        assert dot(a, c) == pytest.approx(0.0, abs=1e-12)
        assert dot(b, c) == pytest.approx(0.0, abs=1e-12)
