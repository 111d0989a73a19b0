"""``HTMMesh.locate`` against the Trixel walk it replaced (``tests/htm/locate_oracle.py``).

The flat descent must return the oracle's ID at every level for every
point: random points, the poles and the face edges, points placed on
trixel corners, edge midpoints and edges, and — with the edge epsilon
patched alike in both — points that take either numerical fallback.  The
generator golden pins the IDs the synthetic catalogs carry.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.htm.geometry
import repro.htm.mesh
import tests.htm.locate_oracle
from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.htm import ids as htm_ids
from repro.htm.geometry import EDGE_EPSILON, SkyPoint, cross, dot, radec_from_vector
from repro.htm.mesh import HTMMesh
from tests.htm.locate_oracle import OracleMesh

LEVELS = range(21)
SPECIAL_RAS = (0.0, 90.0, 180.0, 270.0, 359.9999999)
SPECIAL_DECS = (0.0, 1e-9, -1e-9, 45.0, 90.0, -90.0)

#: sha256 of ``"<survey> <object_id> <htm_id>\n"`` over the base and companion
#: catalogs of ``crossmatch_file``'s generator (4,000 objects, 8 clusters),
#: recorded with the Trixel walk before the flat descent replaced it.
GENERATOR_GOLDEN = {
    101: (4000, 4008, "dcddff12e41c591070bde0082e020e4e96dd54c0f915cb07bae6adc3cb6115c7"),
    1841: (4000, 4000, "914870e3c730f2e446d0c94e6b522a660462cdf995b1b4f29b5d66157267206f"),
}

LIVE, ORACLE = HTMMesh(), OracleMesh()


def assert_matches_oracle(point, levels=LEVELS):
    for level in levels:
        assert LIVE.locate(point, level) == ORACLE.locate(point, level), (point, level)


@st.composite
def trixel_ids(draw, min_level=5, max_level=14):
    """An HTM ID at a level in ``[min_level, max_level]``, any path."""
    level = draw(st.integers(min_value=min_level, max_value=max_level))
    htm_id = draw(st.integers(min_value=8, max_value=15))
    for digit in draw(st.lists(st.integers(0, 3), min_size=level, max_size=level)):
        htm_id = (htm_id << 2) | digit
    return htm_id


def on_trixel(corners, where, t):
    """A corner (0–2), an edge midpoint (3–5) or a point at *t* along an edge (6–8)."""
    a, b = corners[where % 3], corners[(where + 1) % 3]
    if where < 3:
        v = a
    elif where < 6:
        v = tuple(p + q for p, q in zip(a, b))
    else:
        v = tuple((1.0 - t) * p + t * q for p, q in zip(a, b))
    return SkyPoint(*radec_from_vector(v))


def at_edge_epsilon(corners, edge, t, epsilon=EDGE_EPSILON):
    """A point *t* along an edge whose edge test reads about ``-epsilon``.

    ``dot(cross(a, b), v) >= -epsilon`` is decided by the last bits of its
    float operations only here, so these points tell a reordered or
    reassociated edge test (or midpoint) from the one the walk computes.
    """
    a, b = corners[edge], corners[(edge + 1) % 3]
    normal = cross(a, b)
    length = math.sqrt(dot(normal, normal))
    on_edge = tuple((1.0 - t) * p + t * q for p, q in zip(a, b))
    on_edge = tuple(c / math.sqrt(dot(on_edge, on_edge)) for c in on_edge)
    outward = (epsilon + dot(normal, on_edge)) / length
    v = tuple(c - outward * n / length for c, n in zip(on_edge, normal))
    return SkyPoint(*radec_from_vector(v))


def edge_sweep(epsilon=EDGE_EPSILON, per_edge=25, seed=48):
    """``(level, point)`` at the *epsilon* threshold of every edge of every
    child, levels 1–14, *per_edge* points each below random parents.

    One such test in a few dozen is decided by the last bit of its float
    operations, so each edge gets enough points to meet some.
    """
    rng = random.Random(seed)
    for level in range(1, 15):
        for child in range(4):
            for edge in range(3):
                for _ in range(per_edge):
                    htm_id = rng.randint(8, 15)
                    for _ in range(level - 1):
                        htm_id = (htm_id << 2) | rng.randint(0, 3)
                    corners = ORACLE.trixel((htm_id << 2) | child).corners
                    yield level, at_edge_epsilon(corners, edge, rng.uniform(0.01, 0.99), epsilon)


class TestEqualToOracle:
    @given(
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        st.floats(min_value=-90.0, max_value=90.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_points(self, ra, dec):
        assert_matches_oracle(SkyPoint(ra, dec))

    @pytest.mark.parametrize("ra", SPECIAL_RAS)
    def test_axes_poles_and_the_equator(self, ra):
        for dec in SPECIAL_DECS:
            assert_matches_oracle(SkyPoint(ra, dec))

    @given(st.sampled_from(SPECIAL_RAS), st.floats(min_value=-90.0, max_value=90.0))
    @settings(max_examples=60, deadline=None)
    def test_face_meridians(self, ra, dec):
        assert_matches_oracle(SkyPoint(ra, dec))

    @given(trixel_ids(), st.integers(0, 8), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_corners_midpoints_and_edges(self, htm_id, where, t):
        assert_matches_oracle(on_trixel(ORACLE.trixel(htm_id).corners, where, t))

    @given(trixel_ids(1, 14), st.integers(0, 2), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=300, deadline=None)
    def test_points_at_the_edge_epsilon(self, htm_id, edge, t):
        point = at_edge_epsilon(ORACLE.trixel(htm_id).corners, edge, t)
        level = htm_ids.htm_level(htm_id)
        assert_matches_oracle(point, range(level - 1, min(level + 2, 21)))

    def test_every_child_edge_at_the_edge_epsilon(self):
        for level, point in edge_sweep():
            assert_matches_oracle(point, (level,))

    def test_every_corner_and_midpoint_of_one_deep_path(self):
        # All corners and edge midpoints of the trixels on one path, levels 5-14.
        htm_id = 13
        for digit in (2, 0, 3, 1, 3, 3, 0, 2, 1, 0, 3, 2, 1, 0):
            htm_id = (htm_id << 2) | digit
            if htm_ids.htm_level(htm_id) >= 5:
                corners = ORACLE.trixel(htm_id).corners
                for where in range(6):
                    assert_matches_oracle(on_trixel(corners, where, 0.0))


class TestFallbacks:
    """Both numerical fallbacks, reached by patching the edge epsilon in both."""

    def located_with_epsilon(self, epsilon, points, levels=(0, 3, 9, 14)):
        hits = {"live": [0, 0], "oracle": [0, 0]}

        def counting(side, alignment):
            def wrapped(trixel, v):
                hits[side][htm_ids.htm_level(trixel.htm_id) > 0] += 1
                return alignment(trixel, v)

            return wrapped

        alignment = repro.htm.mesh._axis_alignment
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.htm.geometry, "EDGE_EPSILON", epsilon)
            patch.setattr(repro.htm.mesh, "EDGE_EPSILON", epsilon)
            patch.setattr(repro.htm.mesh, "_axis_alignment", counting("live", alignment))
            patch.setattr(
                tests.htm.locate_oracle, "_axis_alignment", counting("oracle", alignment)
            )
            for point in points:
                for level in levels:
                    assert LIVE.locate(point, level) == ORACLE.locate(point, level), (
                        point,
                        level,
                    )
        return hits

    def points(self, count=150, seed=48):
        rng = random.Random(seed)
        near_root_edges = [SkyPoint(rng.uniform(0.0, 360.0), rng.uniform(-1e-4, 1e-4))]
        near_root_edges += [SkyPoint(ra + 1e-5, rng.uniform(-80.0, 80.0)) for ra in SPECIAL_RAS]
        return near_root_edges + [
            SkyPoint(rng.uniform(0.0, 360.0), rng.uniform(-90.0, 90.0)) for _ in range(count)
        ]

    def test_strict_edges_take_both_fallbacks_alike(self):
        # A negative epsilon leaves a band along every edge inside no
        # trixel: points there fall back at the root and in the descent.
        hits = self.located_with_epsilon(-1e-3, self.points())
        root_hits, child_hits = hits["live"]
        assert root_hits > 0 and child_hits > 0
        assert hits["oracle"][0] > 0 and hits["oracle"][1] > 0

    def test_child_edges_at_a_strict_epsilon(self):
        # Under a negative epsilon a child's outer edge test can decide
        # between a child and the fallback: its threshold lies inside the parent.
        for level, point in edge_sweep(-1e-9, per_edge=10):
            self.located_with_epsilon(-1e-9, [point], levels=(level,))

    def test_loose_edges_keep_the_first_child_in_child_order(self):
        # A wide epsilon puts most points in several children at once.
        hits = self.located_with_epsilon(1e-3, self.points())
        assert hits == {"live": [0, 0], "oracle": [0, 0]}


class TestGeneratorGolden:
    @pytest.mark.parametrize("seed", sorted(GENERATOR_GOLDEN))
    def test_catalog_ids_unchanged(self, seed):
        generator = SkyGenerator(
            SkyGeneratorConfig(object_count=4_000, cluster_count=8, seed=seed)
        )
        base = generator.generate("sdss")
        companion = generator.derive_companion(base, "twomass", completeness=0.9)
        digest = hashlib.sha256()
        for table in (base, companion):
            for obj in table:
                digest.update(f"{table.survey} {obj.object_id} {obj.htm_id}\n".encode())
        assert (len(base), len(companion), digest.hexdigest()) == GENERATOR_GOLDEN[seed]
