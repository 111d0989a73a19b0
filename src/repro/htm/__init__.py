"""Hierarchical Triangular Mesh (HTM) substrate.

The HTM indexes points on the celestial sphere by recursively subdividing
the eight faces of an octahedron into spherical triangles ("trixels").
Each trixel is named by an integer ID whose bit pattern encodes the path
from the root face down to the trixel; sibling trixels therefore have
adjacent IDs and the numbering forms a space-filling curve that preserves
spatial locality.  SkyQuery assigns every observation a level-14 HTM ID;
LifeRaft exploits the curve to partition the sky into equal-sized buckets
that are contiguous in HTM order.

Modules
-------
``geometry``
    Unit-vector math on the sphere: RA/Dec conversion, angular separation,
    triangle containment tests and circumscribed cones.
``mesh``
    The trixel decomposition itself: computing trixel corners and locating
    the trixel that contains a point.
``ids``
    Encoding of HTM IDs and the ID ranges of a trixel's descendants.
``curve``
    Range arithmetic on the HTM curve: covers of cone regions and range
    intersections.
"""

from repro.htm.geometry import (
    SkyPoint,
    unit_vector,
    radec_from_vector,
    angular_separation,
)
from repro.htm.mesh import HTMMesh, Trixel
from repro.htm.ids import (
    htm_level,
    htm_id_to_name,
    parent_id,
    child_ids,
    id_range_at_level,
)
from repro.htm.curve import HTMRange, HTMRangeSet, cone_cover

__all__ = [
    "SkyPoint",
    "unit_vector",
    "radec_from_vector",
    "angular_separation",
    "HTMMesh",
    "Trixel",
    "htm_level",
    "htm_id_to_name",
    "parent_id",
    "child_ids",
    "id_range_at_level",
    "HTMRange",
    "HTMRangeSet",
    "cone_cover",
]
