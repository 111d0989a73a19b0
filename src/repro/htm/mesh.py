"""The Hierarchical Triangular Mesh decomposition of the sphere.

The mesh starts from the eight faces of an octahedron inscribed in the
celestial sphere and recursively splits every spherical triangle into four
children by connecting the midpoints of its edges.  ``HTMMesh`` provides
the two operations LifeRaft needs:

* :meth:`HTMMesh.locate` — assign a sky position the HTM ID of the trixel
  containing it at a given level (this is how the synthetic catalogs'
  observations receive their 32-bit level-14 IDs), and
* :meth:`HTMMesh.root_trixels` — the eight faces the cone covers of query
  regions descend from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.htm import ids as htm_ids
from repro.htm.geometry import (
    EDGE_EPSILON,
    SkyPoint,
    Vector,
    cross,
    midpoint,
    triangle_circumcircle,
)

#: An ``HTMMesh.cover_terms`` value.
_CoverTerms = Tuple[float, float, float, float, float, Optional[Tuple[float, float, float, float]]]

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


#: The root trixels in ID order, and their edge normals as the edge test
#: computes them: ``cross(c0, c1)``, ``cross(c1, c2)``, ``cross(c2, c0)``.
_ROOTS: Tuple[Trixel, ...] = tuple(
    Trixel(face_id, _ROOT_FACES[face_id]) for face_id in htm_ids.root_face_ids()
)
_ROOT_EDGE_NORMALS = tuple(
    (cross(c0, c1), cross(c1, c2), cross(c2, c0)) for c0, c1, c2 in (t.corners for t in _ROOTS)
)


class HTMMesh:
    """Locator for the hierarchical triangular mesh.

    Attributes
    ----------
    cover_terms:
        :func:`~repro.htm.curve.cone_cover`'s memo: HTM ID → the terms
        ``(ax, ay, az, d, sin R, axis)`` — the oriented unit axis, ``d = a·c0
        = cos R``, ``sin R`` (NaN for collinear corners) and, once a cover
        took the exact path there, the axis's Vincenty terms (longitude, cos
        and sin of latitude, circumradius; else ``None``) — of each trixel a
        cover with this mesh visited, for levels up to
        ``repro.htm.curve.COVER_MEMO_LEVEL`` (4) only, so at most 2,728
        entries.  The terms are a function of the trixel's corners alone, and
        every mesh derives the same corners from the same root faces, so a
        memoised value is bit-identical to recomputing it.
    """

    def __init__(self) -> None:
        self.cover_terms: Dict[int, _CoverTerms] = {}

    def root_trixels(self) -> Tuple[Trixel, ...]:
        """Return the eight root trixels (the octahedron faces)."""
        return _ROOTS

    def locate(self, point: SkyPoint, level: int = htm_ids.SKYQUERY_LEVEL) -> int:
        """Return the HTM ID of the trixel at *level* containing *point*.

        Every point belongs to exactly one trixel per level; points that
        fall on shared edges are assigned to the first containing child in
        child order, which keeps the assignment deterministic.

        One loop carries the current ID and its corners as floats; a
        :class:`Trixel` is built only by the two numerical fallbacks.  The
        midpoints and every edge test use the float operations of
        ``Trixel.children`` and ``dot(cross(a, b), v) >= -EDGE_EPSILON`` in
        their order, and
        since ``cross(b, a)`` is exactly ``-cross(a, b)`` the three inner
        edges are computed once for the four children.  Every ID is
        bit-identical to the Trixel walk's (``tests/htm/locate_oracle.py``).
        """
        if level < 0:
            raise ValueError("level must be non-negative")
        v = point.to_vector()
        x, y, z = v
        eps = EDGE_EPSILON
        floor = -eps
        for root, (n0, n1, n2) in zip(_ROOTS, _ROOT_EDGE_NORMALS):
            if (
                n0[0] * x + n0[1] * y + n0[2] * z >= floor
                and n1[0] * x + n1[1] * y + n1[2] * z >= floor
                and n2[0] * x + n2[1] * y + n2[2] * z >= floor
            ):
                break
        else:
            # Numerical corner case exactly on a root edge/vertex: pick the
            # face whose circumcircle axis is closest to the point.
            root = max(_ROOTS, key=lambda t: _axis_alignment(t, v))
        htm_id = root.htm_id
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = root.corners
        sqrt = math.sqrt
        for _ in range(level):
            # Trixel.children(): w0 = midpoint(c1, c2), w1 = midpoint(c0, c2),
            # w2 = midpoint(c0, c1), with geometry.midpoint's arithmetic.
            sx, sy, sz = bx + cx, by + cy, bz + cz
            norm = sqrt(sx * sx + sy * sy + sz * sz)
            ux, uy, uz = sx / norm, sy / norm, sz / norm
            sx, sy, sz = ax + cx, ay + cy, az + cz
            norm = sqrt(sx * sx + sy * sy + sz * sz)
            vx, vy, vz = sx / norm, sy / norm, sz / norm
            sx, sy, sz = ax + bx, ay + by, az + bz
            norm = sqrt(sx * sx + sy * sy + sz * sz)
            wx, wy, wz = sx / norm, sy / norm, sz / norm
            # dot(cross(w0, w1), v), dot(cross(w1, w2), v), dot(cross(w2, w0), v).
            d01 = (uy * vz - uz * vy) * x + (uz * vx - ux * vz) * y + (ux * vy - uy * vx) * z
            d12 = (vy * wz - vz * wy) * x + (vz * wx - vx * wz) * y + (vx * wy - vy * wx) * z
            d20 = (wy * uz - wz * uy) * x + (wz * ux - wx * uz) * y + (wx * uy - wy * ux) * z
            htm_id <<= 2
            if (
                # child 0, (c0, w2, w1): edge (w2, w1) is -d12.
                d12 <= eps
                and (ay * wz - az * wy) * x + (az * wx - ax * wz) * y + (ax * wy - ay * wx) * z
                >= floor
                and (vy * az - vz * ay) * x + (vz * ax - vx * az) * y + (vx * ay - vy * ax) * z
                >= floor
            ):
                bx, by, bz, cx, cy, cz = wx, wy, wz, vx, vy, vz
            elif (
                # child 1, (c1, w0, w2): edge (w0, w2) is -d20.
                d20 <= eps
                and (by * uz - bz * uy) * x + (bz * ux - bx * uz) * y + (bx * uy - by * ux) * z
                >= floor
                and (wy * bz - wz * by) * x + (wz * bx - wx * bz) * y + (wx * by - wy * bx) * z
                >= floor
            ):
                htm_id += 1
                ax, ay, az, bx, by, bz, cx, cy, cz = bx, by, bz, ux, uy, uz, wx, wy, wz
            elif (
                # child 2, (c2, w1, w0): edge (w1, w0) is -d01.
                d01 <= eps
                and (cy * vz - cz * vy) * x + (cz * vx - cx * vz) * y + (cx * vy - cy * vx) * z
                >= floor
                and (uy * cz - uz * cy) * x + (uz * cx - ux * cz) * y + (ux * cy - uy * cx) * z
                >= floor
            ):
                htm_id += 2
                ax, ay, az, bx, by, bz, cx, cy, cz = cx, cy, cz, vx, vy, vz, ux, uy, uz
            elif d01 >= floor and d12 >= floor and d20 >= floor:
                # child 3, (w0, w1, w2).
                htm_id += 3
                ax, ay, az, bx, by, bz, cx, cy, cz = ux, uy, uz, vx, vy, vz, wx, wy, wz
            else:
                # Again a numerical edge case: descend into the closest child.
                parent = Trixel(htm_id >> 2, ((ax, ay, az), (bx, by, bz), (cx, cy, cz)))
                child = max(parent.children(), key=lambda t: _axis_alignment(t, v))
                htm_id = child.htm_id
                (ax, ay, az), (bx, by, bz), (cx, cy, cz) = child.corners
        return htm_id


def _axis_alignment(trixel: Trixel, v: Vector) -> float:
    """Dot product between the trixel's circumcircle axis and *v*."""
    axis, _radius = trixel.circumcircle()
    return axis[0] * v[0] + axis[1] * v[1] + axis[2] * v[2]

