"""Tests for HTM range arithmetic and cone covers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import curve
from repro.htm import ids as htm_ids
from repro.htm.curve import (
    COVER_MEMO_LEVEL,
    HTMRange,
    HTMRangeSet,
    cone_cover,
    range_for_trixel,
)
from repro.htm.geometry import SkyPoint, cross, normalize, radec_from_vector, triangle_circumcircle
from repro.htm.mesh import HTMMesh, Trixel
from tests.htm.cover_oracle import cone_cover as oracle_cover
from tests.htm.locate_oracle import OracleMesh

ARCSEC = 1.0 / 3600.0
#: The oracle grid: radii from a point to a quarter of the sky.
GRID_RADII = (0.0, 3.0 * ARCSEC, 0.01, 0.5, 10.0, 60.0)
#: Radii at and past the quarter sky, where r + R can pass 180°.
WIDE_RADII = (89.999, 90.0, 120.0, 179.0, 180.0, 270.0)
#: Every trixel at a level up to COVER_MEMO_LEVEL: 8 · (4⁵ − 1) / 3.
MEMO_CAP = 2_728


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

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_radius_rejected(self, mesh, radius):
        # A NaN radius fails every comparison, so the descent used to accept
        # each face at cover_level: the whole sky, and 8 · 4¹² trixel tests
        # at cover_level 12.
        with pytest.raises(ValueError, match="finite"):
            cone_cover(SkyPoint(10.0, 10.0), radius, cover_level=3, mesh=mesh)

    def test_negative_cover_level_rejected(self, mesh):
        with pytest.raises(ValueError, match="non-negative"):
            cone_cover(SkyPoint(10.0, 10.0), 1.0, cover_level=-1, mesh=mesh)

    @pytest.mark.parametrize("levels", [{"cover_level": 2.5}, {"leaf_level": 14.5}])
    def test_non_integer_levels_rejected(self, mesh, levels):
        # cover_level=2.5 used to return the level-3 cover.
        with pytest.raises(ValueError, match="integers"):
            cone_cover(SkyPoint(10.0, 10.0), 1.0, mesh=mesh, **levels)


def special_points():
    """Poles, RA 0 / 360 and the root faces' edges (the equator and the
    meridians at RA 0, 90, 180 and 270), singly and in combination."""
    ra = st.sampled_from([0.0, 90.0, 180.0, 270.0, 360.0, 359.9999999, 1e-9, 45.0])
    dec = st.sampled_from([-90.0, -45.0, -1e-9, 0.0, 1e-9, 45.0, 90.0])
    return st.builds(SkyPoint, ra, dec)


def sky_points():
    return st.one_of(
        special_points(),
        st.builds(
            SkyPoint,
            st.floats(min_value=0.0, max_value=360.0),
            st.floats(min_value=-90.0, max_value=90.0),
        ),
    )


@pytest.fixture
def exact_calls(monkeypatch):
    """The arguments of every exact-path (Vincenty) decision the cover takes."""
    calls = []
    exact = curve._vincenty_separation

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(curve, "_vincenty_separation", counted)
    return calls


def center_at(axis, toward, angle):
    """The sky point *angle* radians from unit vector *axis*, toward *toward*."""
    side = normalize(cross(cross(axis, toward), axis))
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return SkyPoint(*radec_from_vector([cos_a * a + sin_a * t for a, t in zip(axis, side)]))


def assert_matches_oracle(center, radius, cover_level, leaf_level=14, mesh=None):
    """The live cover equals the oracle's, range for range (fresh meshes
    unless *mesh* is given, which the live cover then shares)."""
    live = cone_cover(center, radius, cover_level, leaf_level, mesh=mesh)
    reference = oracle_cover(center, radius, cover_level, leaf_level, mesh=HTMMesh())
    assert live.ranges == reference.ranges, (center, radius, cover_level, leaf_level)


class TestCoverMatchesOracle:
    """The flat descent with a shallow memo is the old Trixel walk, bit for bit."""

    @given(
        sky_points(),
        st.sampled_from(GRID_RADII),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_center_radius_and_level(self, center, radius, cover_level):
        assert_matches_oracle(center, radius, cover_level)

    @pytest.mark.parametrize("radius", GRID_RADII)
    def test_grid_at_special_centers(self, radius):
        mesh = HTMMesh()
        for cover_level in range(9):
            for center in (SkyPoint(0.0, 90.0), SkyPoint(360.0, 0.0), SkyPoint(90.0, -45.0)):
                assert_matches_oracle(center, radius, cover_level, mesh=mesh)

    @given(sky_points(), st.sampled_from([0.0, 0.1 * ARCSEC, 3.0 * ARCSEC, 0.01]))
    @settings(max_examples=40, deadline=None)
    def test_small_radii_at_the_leaf_level(self, center, radius):
        assert_matches_oracle(center, radius, cover_level=14)

    def test_warm_memo_over_many_error_circles(self, exact_calls):
        # The crossmatch_file shape: 3-arcsecond circles at level 12, one mesh.
        rng = random.Random(46)
        live_mesh, oracle_mesh = HTMMesh(), HTMMesh()
        for _ in range(500):
            center = SkyPoint(rng.uniform(0.0, 360.0), rng.uniform(-90.0, 90.0))
            live = cone_cover(center, 3.0 * ARCSEC, cover_level=12, mesh=live_mesh)
            reference = oracle_cover(center, 3.0 * ARCSEC, cover_level=12, mesh=oracle_mesh)
            assert live.ranges == reference.ranges, center
        assert 0 < len(live_mesh.cover_terms) <= MEMO_CAP
        # The cosine test decides all but the trixels within its margin.
        assert 0 < len(exact_calls) < 500

    @pytest.mark.parametrize("radius", WIDE_RADII)
    def test_wide_radii(self, radius, exact_calls):
        mesh = HTMMesh()
        for cover_level in range(7):
            for center in (SkyPoint(0.0, 90.0), SkyPoint(200.0, -30.0), SkyPoint(45.0, 0.0)):
                assert_matches_oracle(center, radius, cover_level, mesh=mesh)
        # Trixels with R < r above cover_level, and from 180° on every
        # trixel, take the exact path; below 180° the cosine test holds only
        # where r + R < 180°, which the roots (R ≈ 54.7°) break from 125.3° on.
        assert exact_calls

    @given(
        sky_points(),
        st.floats(min_value=0.1, max_value=3.6),
        st.integers(min_value=16, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiny_radii_at_deep_levels(self, center, radius_arcsec, cover_level):
        assert_matches_oracle(center, radius_arcsec * ARCSEC, cover_level, leaf_level=20)

    @pytest.mark.parametrize("level", [1, 4, 8, 12, 16])
    def test_centers_at_the_margin(self, level, exact_calls):
        # Centers r + R (the disjoint bound) and |r − R| (the inside bound)
        # away from trixels' own axes, offset by 0, an ulp, and 1e-15 … 1e-9
        # rad either way: the cosine test's margin sits among these, so some
        # go the exact path.
        oracle, mesh = OracleMesh(), HTMMesh()
        for point in (SkyPoint(0.0, 90.0), SkyPoint(0.0, -90.0), SkyPoint(123.4, 37.8)):
            corners = oracle.trixel(mesh.locate(point, level)).corners
            axis, _ = triangle_circumcircle(corners)
            circum = math.acos(min(1.0, sum(a * c for a, c in zip(axis, corners[0]))))
            for radius in (0.3 * circum, 3.0 * circum):
                for bound in (radius + circum, abs(radius - circum)):
                    for offset in (0.0, math.ulp(bound), 1e-15, 1e-12, 1e-9):
                        for angle in (bound - offset, bound + offset):
                            center = center_at(axis, corners[1], angle)
                            for cover_level in (level, level + 1):
                                assert_matches_oracle(
                                    center, math.degrees(radius), cover_level, 20, mesh
                                )
        assert exact_calls

    @given(sky_points(), st.sampled_from(GRID_RADII), st.integers(min_value=0, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_without_a_mesh(self, center, radius, cover_level):
        live = cone_cover(center, radius, cover_level)
        assert live.ranges == oracle_cover(center, radius, cover_level).ranges

    def test_degenerate_faces_take_the_centroid_fallback(self):
        # Collinear corners have no circumcircle normal; both covers must take
        # triangle_circumcircle's centroid axis and agree from there down.
        class DegenerateMesh(HTMMesh):
            def root_trixels(self):
                x, y, z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
                return (Trixel(8, (x, x, y)), Trixel(9, (y, z, z)), Trixel(10, (x, y, z)))

        for center, radius in ((SkyPoint(45.0, 0.0), 5.0), (SkyPoint(10.0, 80.0), 30.0)):
            live = cone_cover(center, radius, cover_level=4, mesh=DegenerateMesh())
            reference = oracle_cover(center, radius, cover_level=4, mesh=DegenerateMesh())
            assert live.ranges == reference.ranges

    def test_memo_holds_only_shallow_trixels(self):
        mesh = HTMMesh()
        for center in (SkyPoint(0.0, 90.0), SkyPoint(120.0, 25.0), SkyPoint(300.0, -60.0)):
            cone_cover(center, 60.0, cover_level=8, mesh=mesh)
        assert mesh.cover_terms
        assert max(htm_ids.htm_level(i) for i in mesh.cover_terms) == COVER_MEMO_LEVEL
        assert len(mesh.cover_terms) <= MEMO_CAP
        axes = 0
        for x, y, z, d, sin_R, axis in mesh.cover_terms.values():
            # Within a few ulp of sin(acos d): 1 − d² would lose ≈ 100 at level 4.
            assert abs(sin_R - math.sin(math.acos(d))) <= 4 * math.ulp(sin_R)
            if axis is not None:
                axes += 1
                assert axis == curve._axis_terms(x, y, z, d)
        # 60° cones hold shallow trixels with R < r: the exact path memoised those.
        assert axes


class TestRangeForTrixel:
    def test_range_for_trixel_matches_id_range(self):
        low, high = htm_ids.id_range_at_level(9, 14)
        assert range_for_trixel(9, 14) == HTMRange(low, high)
