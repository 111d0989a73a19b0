"""The Hierarchical Triangular Mesh decomposition of the sphere.

The mesh starts from the eight faces of an octahedron inscribed in the
celestial sphere and recursively splits every spherical triangle into four
children by connecting the midpoints of its edges.  ``HTMMesh`` provides
the two operations LifeRaft needs:

* :meth:`HTMMesh.locate` — assign a sky position the HTM ID of the trixel
  containing it at a given level (this is how observations receive their
  32-bit level-14 IDs), and
* :meth:`HTMMesh.trixel` — recover the spherical triangle for an ID, used
  when computing covers of query regions.

Trixel corner vectors are memoised because the cross-match pre-processor
locates millions of objects against the same shallow prefix of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.htm import ids as htm_ids
from repro.htm.geometry import (
    SkyPoint,
    Vector,
    midpoint,
    triangle_circumcircle,
    triangle_contains,
)

# Octahedron vertices: v0 = north pole, v5 = south pole, v1..v4 on the equator.
_V0: Vector = (0.0, 0.0, 1.0)
_V1: Vector = (1.0, 0.0, 0.0)
_V2: Vector = (0.0, 1.0, 0.0)
_V3: Vector = (-1.0, 0.0, 0.0)
_V4: Vector = (0.0, -1.0, 0.0)
_V5: Vector = (0.0, 0.0, -1.0)

#: Root face corner assignments in the standard HTM order (Kunszt et al.).
_ROOT_FACES: Dict[int, Tuple[Vector, Vector, Vector]] = {
    8: (_V1, _V5, _V2),   # S0
    9: (_V2, _V5, _V3),   # S1
    10: (_V3, _V5, _V4),  # S2
    11: (_V4, _V5, _V1),  # S3
    12: (_V1, _V0, _V4),  # N0
    13: (_V4, _V0, _V3),  # N1
    14: (_V3, _V0, _V2),  # N2
    15: (_V2, _V0, _V1),  # N3
}


@dataclass(frozen=True)
class Trixel:
    """One spherical triangle of the mesh.

    Attributes
    ----------
    htm_id:
        The trixel's HTM ID (encodes its level and path from the root).
    corners:
        The three corner unit vectors, in the orientation used by the
        containment test.
    """

    htm_id: int
    corners: Tuple[Vector, Vector, Vector]

    @property
    def level(self) -> int:
        """Subdivision level of this trixel."""
        return htm_ids.htm_level(self.htm_id)

    @property
    def name(self) -> str:
        """Textual HTM name, e.g. ``"N012"``."""
        return htm_ids.htm_id_to_name(self.htm_id)

    def contains(self, point: SkyPoint) -> bool:
        """Return ``True`` when *point* lies inside this trixel."""
        return triangle_contains(self.corners, point.to_vector())

    def contains_vector(self, v: Vector) -> bool:
        """Return ``True`` when unit vector *v* lies inside this trixel."""
        return triangle_contains(self.corners, v)

    def circumcircle(self) -> Tuple[Vector, float]:
        """Return the (axis, angular radius in degrees) bounding cone."""
        return triangle_circumcircle(self.corners)

    def children(self) -> Tuple["Trixel", "Trixel", "Trixel", "Trixel"]:
        """Return the four child trixels produced by midpoint subdivision."""
        c0, c1, c2 = self.corners
        w0 = midpoint(c1, c2)
        w1 = midpoint(c0, c2)
        w2 = midpoint(c0, c1)
        base = self.htm_id << 2
        return (
            Trixel(base, (c0, w2, w1)),
            Trixel(base + 1, (c1, w0, w2)),
            Trixel(base + 2, (c2, w1, w0)),
            Trixel(base + 3, (w0, w1, w2)),
        )


class HTMMesh:
    """Locator and enumerator for the hierarchical triangular mesh.

    Parameters
    ----------
    cache_levels:
        Trixels at levels up to this depth are memoised after first use.
        Shallow levels are hit constantly while locating points, so caching
        them is a large win; deep levels are cheap to recompute and would
        otherwise exhaust memory (level 14 has 2.1 billion trixels).

    Attributes
    ----------
    cover_terms:
        :func:`~repro.htm.curve.cone_cover`'s memo: HTM ID → the bounding-cone
        terms (axis longitude, cos and sin of the axis latitude, circumradius)
        of each trixel a cover with this mesh visited, for levels up to
        ``repro.htm.curve.COVER_MEMO_LEVEL`` (4) only, so at most 2,728
        entries.  The terms are a function of the trixel's corners alone, and
        every mesh derives the same corners from the same root faces, so a
        memoised value is bit-identical to recomputing it.
    """

    def __init__(self, cache_levels: int = 6) -> None:
        self._cache_levels = cache_levels
        self.cover_terms: Dict[int, Tuple[float, float, float, float]] = {}
        self._trixel_cache: Dict[int, Trixel] = {
            face_id: Trixel(face_id, corners)
            for face_id, corners in _ROOT_FACES.items()
        }

    def root_trixels(self) -> Tuple[Trixel, ...]:
        """Return the eight root trixels (the octahedron faces)."""
        return tuple(self._trixel_cache[face_id] for face_id in htm_ids.root_face_ids())

    def trixel(self, htm_id: int) -> Trixel:
        """Return the :class:`Trixel` for *htm_id*, computing corners on demand."""
        cached = self._trixel_cache.get(htm_id)
        if cached is not None:
            return cached
        parent = self.trixel(htm_ids.parent_id(htm_id))
        child = parent.children()[htm_id & 0b11]
        if child.level <= self._cache_levels:
            self._trixel_cache[htm_id] = child
        return child

    def locate(self, point: SkyPoint, level: int = htm_ids.SKYQUERY_LEVEL) -> int:
        """Return the HTM ID of the trixel at *level* containing *point*.

        Every point belongs to exactly one trixel per level; points that
        fall on shared edges are assigned to the first containing child in
        child order, which keeps the assignment deterministic.
        """
        if level < 0:
            raise ValueError("level must be non-negative")
        v = point.to_vector()
        current: Optional[Trixel] = None
        for root in self.root_trixels():
            if root.contains_vector(v):
                current = root
                break
        if current is None:
            # Numerical corner case exactly on a root edge/vertex: pick the
            # face whose circumcircle axis is closest to the point.
            current = max(
                self.root_trixels(),
                key=lambda t: _axis_alignment(t, v),
            )
        for _ in range(level):
            for child in self._children_of(current):
                if child.contains_vector(v):
                    current = child
                    break
            else:
                # Again a numerical edge case: descend into the closest child.
                current = max(
                    self._children_of(current), key=lambda t: _axis_alignment(t, v)
                )
        return current.htm_id

    def _children_of(self, trixel: Trixel) -> Tuple[Trixel, ...]:
        """Children of *trixel*, going through the cache when possible."""
        if trixel.level < self._cache_levels:
            return tuple(self.trixel(cid) for cid in htm_ids.child_ids(trixel.htm_id))
        return trixel.children()


def _axis_alignment(trixel: Trixel, v: Vector) -> float:
    """Dot product between the trixel's circumcircle axis and *v*."""
    axis, _radius = trixel.circumcircle()
    return axis[0] * v[0] + axis[1] * v[1] + axis[2] * v[2]

