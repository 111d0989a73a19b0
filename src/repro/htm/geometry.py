"""Spherical geometry primitives used by the HTM and the cross-match join.

All directions on the celestial sphere are represented either as
(right ascension, declination) pairs in degrees or as 3-D unit vectors.
Unit vectors make containment tests (dot products and triple products)
cheap and numerically stable, which is why the HTM literature and the SDSS
`Zones` work use them throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

Vector = Tuple[float, float, float]

#: Numerical slack used for containment tests at trixel edges.  Points that
#: sit exactly on a shared edge must be assigned to exactly one trixel, so
#: the mesh uses a slightly asymmetric comparison against this epsilon.
EDGE_EPSILON = 1.0e-12


@dataclass(frozen=True)
class SkyPoint:
    """A direction on the celestial sphere.

    Parameters
    ----------
    ra:
        Right ascension in degrees, in ``[0, 360)``.
    dec:
        Declination in degrees, in ``[-90, +90]``.
    """

    ra: float
    dec: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.dec <= 90.0:
            raise ValueError(f"declination {self.dec} outside [-90, 90]")
        # Normalise RA into [0, 360).  frozen dataclass -> object.__setattr__.
        object.__setattr__(self, "ra", self.ra % 360.0)

    def to_vector(self) -> Vector:
        """Return the unit vector pointing at this sky position."""
        return unit_vector(self.ra, self.dec)

    def separation(self, other: "SkyPoint") -> float:
        """Angular separation from *other* in degrees."""
        return angular_separation(self.ra, self.dec, other.ra, other.dec)


def unit_vector(ra: float, dec: float) -> Vector:
    """Convert (RA, Dec) in degrees into a Cartesian unit vector.

    The convention matches the SDSS science archive: x points at
    (RA=0, Dec=0), z at the north celestial pole.
    """
    ra_rad = math.radians(ra)
    dec_rad = math.radians(dec)
    cos_dec = math.cos(dec_rad)
    return (
        cos_dec * math.cos(ra_rad),
        cos_dec * math.sin(ra_rad),
        math.sin(dec_rad),
    )


def radec_from_vector(v: Sequence[float]) -> Tuple[float, float]:
    """Convert a (not necessarily normalised) vector back to (RA, Dec) degrees."""
    x, y, z = v
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("zero vector has no direction")
    x, y, z = x / norm, y / norm, z / norm
    dec = math.degrees(math.asin(max(-1.0, min(1.0, z))))
    ra = math.degrees(math.atan2(y, x)) % 360.0
    return ra, dec


def normalize(v: Sequence[float]) -> Vector:
    """Return *v* scaled to unit length."""
    x, y, z = v
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("cannot normalise the zero vector")
    return (x / norm, y / norm, z / norm)


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of two 3-vectors."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Sequence[float], b: Sequence[float]) -> Vector:
    """Cross product of two 3-vectors."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def midpoint(a: Sequence[float], b: Sequence[float]) -> Vector:
    """Normalised midpoint of two unit vectors (great-circle bisector)."""
    return normalize((a[0] + b[0], a[1] + b[1], a[2] + b[2]))


def angular_separation(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Angular separation between two sky positions, in degrees.

    Uses the Vincenty formula, which is accurate for both small and large
    separations (the plain arccos formula loses precision for the
    arc-second separations that cross-match cares about).
    """
    lon1, lat1 = math.radians(ra1), math.radians(dec1)
    lon2, lat2 = math.radians(ra2), math.radians(dec2)
    dlon = lon2 - lon1
    cos_dlon = math.cos(dlon)
    cos_lat1, sin_lat1 = math.cos(lat1), math.sin(lat1)
    cos_lat2, sin_lat2 = math.cos(lat2), math.sin(lat2)
    num = math.hypot(
        cos_lat2 * math.sin(dlon),
        cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon,
    )
    den = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * cos_dlon
    return math.degrees(math.atan2(num, den))


def triangle_contains(corners: Sequence[Vector], v: Sequence[float]) -> bool:
    """Return ``True`` when unit vector *v* lies inside the spherical triangle.

    The triangle is given by three corner unit vectors in counter-clockwise
    order (seen from outside the sphere).  A point is inside when it is on
    the positive side of all three edge planes.  The comparison uses a small
    negative epsilon so points on an edge are accepted; callers that need a
    unique owner (the mesh) disambiguate by child visiting order.
    """
    c0, c1, c2 = corners
    return (
        dot(cross(c0, c1), v) >= -EDGE_EPSILON
        and dot(cross(c1, c2), v) >= -EDGE_EPSILON
        and dot(cross(c2, c0), v) >= -EDGE_EPSILON
    )


def triangle_circumcircle(corners: Sequence[Vector]) -> Tuple[Vector, float]:
    """Return (center unit vector, angular radius in degrees) of the
    circumscribed cone of a spherical triangle.

    Used by the cone-cover computation to quickly reject trixels that cannot
    intersect a query cone.
    """
    c0, c1, c2 = corners
    # The circumcircle axis is orthogonal to the differences of the corners.
    axis = cross(
        (c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2]),
        (c2[0] - c1[0], c2[1] - c1[1], c2[2] - c1[2]),
    )
    try:
        axis = normalize(axis)
    except ValueError:
        # Degenerate (collinear) corners: fall back to the centroid.
        axis = midpoint(midpoint(c0, c1), c2)
    if dot(axis, c0) < 0:
        axis = (-axis[0], -axis[1], -axis[2])
    radius = math.degrees(math.acos(max(-1.0, min(1.0, dot(axis, c0)))))
    return axis, radius

