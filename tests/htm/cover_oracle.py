"""The cone cover ``repro.htm.curve.cone_cover`` replaced, kept as its oracle.

:func:`cone_cover` below is the old body verbatim (``Trixel.level``, since
deleted, spelled out as the ``htm_level`` call it was): one :class:`Trixel`
per visited trixel, its bounding cone from ``Trixel.circumcircle`` →
``radec_from_vector`` → ``angular_separation``.  The live cover walks the
same trixels, decides most of them with a trig-free cosine test and the
rest with these float operations, and must return exactly these ranges.
(The live cover also rejects a non-finite radius, a negative
``cover_level`` and non-integer levels; this one does not, so compare
only valid inputs.)
"""

from typing import List, Optional

from repro.htm import ids as htm_ids
from repro.htm.curve import HTMRange, HTMRangeSet, range_for_trixel
from repro.htm.geometry import SkyPoint, radec_from_vector
from repro.htm.mesh import HTMMesh, Trixel
from tests.htm.separation_reference import angular_separation


def cone_cover(
    center: SkyPoint,
    radius_deg: float,
    cover_level: int = 7,
    leaf_level: int = htm_ids.SKYQUERY_LEVEL,
    mesh: Optional[HTMMesh] = None,
) -> HTMRangeSet:
    """Compute a conservative HTM cover of a cone (circular sky region).

    The cover descends the mesh from the root faces.  A trixel is

    * **rejected** when its circumscribed cone is disjoint from the query
      cone (the angular separation of the two axes exceeds the sum of the
      radii),
    * **fully accepted** when its circumscribed cone lies inside the query
      cone, and
    * **recursed into** otherwise, down to *cover_level*, where the
      remaining candidates are accepted conservatively (the coarse filter of
      §3.1 is allowed to over-approximate; the refine step removes false
      positives).

    Returns the cover as leaf-level ranges so it can be intersected directly
    with bucket boundaries.
    """
    if radius_deg < 0:
        raise ValueError("radius must be non-negative")
    if cover_level > leaf_level:
        raise ValueError("cover_level cannot exceed leaf_level")
    mesh = mesh or HTMMesh()
    accepted: List[HTMRange] = []
    stack: List[Trixel] = list(mesh.root_trixels())
    while stack:
        trixel = stack.pop()
        axis, circum_radius = trixel.circumcircle()
        axis_ra, axis_dec = radec_from_vector(axis)
        separation = angular_separation(center.ra, center.dec, axis_ra, axis_dec)
        if separation > radius_deg + circum_radius:
            continue  # disjoint
        level = htm_ids.htm_level(trixel.htm_id)
        if separation + circum_radius <= radius_deg or level >= cover_level:
            accepted.append(range_for_trixel(trixel.htm_id, leaf_level))
            continue
        stack.extend(trixel.children())
    return HTMRangeSet(accepted)
