"""The point location ``repro.htm.mesh.HTMMesh.locate`` replaced, kept as its oracle.

:class:`OracleMesh` below is the old mesh's locator: a
:class:`~repro.htm.mesh.Trixel` per child at every level (through a memo of
the trixels at levels up to ``cache_levels``), each tested with
``triangle_contains``.  It is the old body verbatim except that the
``Trixel.level`` and ``Trixel.contains_vector`` it called, which nothing
else used, are spelled out as the ``htm_level`` and ``triangle_contains``
calls they were.  :func:`triangle_contains`, :func:`parent_id` and
:func:`child_ids` are the old ``repro.htm`` functions it called.  The live
``locate`` descends the same children with the float operations inlined and
must return exactly these IDs.  :meth:`OracleMesh.trixel` is also the
tests' way to recover a trixel's corners from its ID.
"""

from typing import Dict, Optional, Sequence, Tuple

from repro.htm import geometry
from repro.htm import ids as htm_ids
from repro.htm.geometry import SkyPoint, Vector, cross, dot
from repro.htm.mesh import _ROOT_FACES, Trixel, _axis_alignment


def triangle_contains(corners: Sequence[Vector], v: Sequence[float]) -> bool:
    """Return ``True`` when unit vector *v* lies inside the spherical triangle.

    The triangle is given by three corner unit vectors in counter-clockwise
    order (seen from outside the sphere).  A point is inside when it is on
    the positive side of all three edge planes.  The comparison uses a small
    negative epsilon so points on an edge are accepted; callers that need a
    unique owner (the mesh) disambiguate by child visiting order.  This is
    the edge test ``HTMMesh.locate`` inlines (the old
    ``repro.htm.geometry.triangle_contains``, reading the epsilon at call
    time so a test can patch it).
    """
    c0, c1, c2 = corners
    return (
        dot(cross(c0, c1), v) >= -geometry.EDGE_EPSILON
        and dot(cross(c1, c2), v) >= -geometry.EDGE_EPSILON
        and dot(cross(c2, c0), v) >= -geometry.EDGE_EPSILON
    )


def parent_id(htm_id: int) -> int:
    """Return the ID of the parent trixel.

    Raises ``ValueError`` for a root face, which has no parent.
    """
    if htm_ids.htm_level(htm_id) == 0:
        raise ValueError(f"root face {htm_id} has no parent")
    return htm_id >> 2


def child_ids(htm_id: int) -> Tuple[int, int, int, int]:
    """Return the IDs of the four children of *htm_id*, in child order."""
    if not htm_ids.is_valid_htm_id(htm_id):
        raise ValueError(f"{htm_id} is not a valid HTM ID")
    base = htm_id << 2
    return (base, base + 1, base + 2, base + 3)


class OracleMesh:
    """The old ``HTMMesh``'s trixel memo, ``trixel``, ``locate`` and ``_children_of``.

    Parameters
    ----------
    cache_levels:
        Trixels at levels up to this depth are memoised after first use.
    """

    def __init__(self, cache_levels: int = 6) -> None:
        self._cache_levels = cache_levels
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
        parent = self.trixel(parent_id(htm_id))
        child = parent.children()[htm_id & 0b11]
        if htm_ids.htm_level(child.htm_id) <= self._cache_levels:
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
            if triangle_contains(root.corners, v):
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
                if triangle_contains(child.corners, v):
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
        if htm_ids.htm_level(trixel.htm_id) < self._cache_levels:
            return tuple(self.trixel(cid) for cid in child_ids(trixel.htm_id))
        return trixel.children()
