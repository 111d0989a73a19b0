"""Range arithmetic on the HTM space-filling curve.

Because the HTM numbering preserves spatial locality, a spatial region maps
to a small set of contiguous ID intervals ("ranges") at the leaf level.
SkyQuery attaches such a range to every cross-match object as its bounding
box; LifeRaft's pre-processor intersects those ranges with the bucket
boundaries to build workload queues.  This module provides the range type,
a set-of-ranges container with intersection, and the cover computation
that turns a cone on the sky into ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.htm import ids as htm_ids
from repro.htm.geometry import SkyPoint, radec_from_vector, triangle_circumcircle
from repro.htm.mesh import HTMMesh

#: Cone covers memoise the bounding-cone terms of trixels at levels up to
#: this one on their mesh (``HTMMesh.cover_terms``): 8 · (4⁵ − 1) / 3 =
#: 2,728 trixels at most, the shallow ones every cover of a sky visits.
COVER_MEMO_LEVEL = 4


@dataclass(frozen=True, order=True)
class HTMRange:
    """An inclusive interval ``[low, high]`` of HTM IDs at a single level."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty HTM range [{self.low}, {self.high}]")

    def __len__(self) -> int:
        return self.high - self.low + 1

    def __contains__(self, htm_id: int) -> bool:
        return self.low <= htm_id <= self.high

    def intersect(self, other: "HTMRange") -> Optional["HTMRange"]:
        """Return the overlap of the two ranges, or ``None`` when disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return HTMRange(low, high)

    def union_if_adjacent(self, other: "HTMRange") -> Optional["HTMRange"]:
        """Merge with *other* when the ranges overlap or touch."""
        if self.low > other.high + 1 or other.low > self.high + 1:
            return None
        return HTMRange(min(self.low, other.low), max(self.high, other.high))


class HTMRangeSet:
    """A normalised (sorted, disjoint, non-adjacent) set of HTM ranges.

    This is the "list of HTM ID values serving as a bounding box" that each
    cross-match object carries in the paper (§3.1), and the representation
    of a bucket's extent on the curve.
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable[HTMRange] = ()) -> None:
        self._ranges: List[HTMRange] = _normalise(ranges)

    @property
    def ranges(self) -> Tuple[HTMRange, ...]:
        """The normalised ranges, in increasing curve order."""
        return tuple(self._ranges)

    def __iter__(self) -> Iterator[HTMRange]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HTMRangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __repr__(self) -> str:
        inner = ", ".join(f"[{r.low}, {r.high}]" for r in self._ranges)
        return f"HTMRangeSet({inner})"

    def intersection(self, other: "HTMRangeSet") -> "HTMRangeSet":
        """Set intersection of the two covers (merge-scan over sorted ranges)."""
        result: List[HTMRange] = []
        i = j = 0
        a, b = self._ranges, other._ranges
        while i < len(a) and j < len(b):
            overlap = a[i].intersect(b[j])
            if overlap is not None:
                result.append(overlap)
            if a[i].high < b[j].high:
                i += 1
            else:
                j += 1
        return HTMRangeSet(result)


def _normalise(ranges: Iterable[HTMRange]) -> List[HTMRange]:
    """Sort and merge overlapping/adjacent ranges."""
    ordered = sorted(ranges, key=lambda r: (r.low, r.high))
    merged: List[HTMRange] = []
    for r in ordered:
        if merged:
            joined = merged[-1].union_if_adjacent(r)
            if joined is not None:
                merged[-1] = joined
                continue
        merged.append(r)
    return merged


def range_for_trixel(htm_id: int, leaf_level: int = htm_ids.SKYQUERY_LEVEL) -> HTMRange:
    """Leaf-level ID range spanned by trixel *htm_id*."""
    low, high = htm_ids.id_range_at_level(htm_id, leaf_level)
    return HTMRange(low, high)


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

    The descent is one loop over ``(htm_id, level, corners)`` tuples; no
    :class:`~repro.htm.mesh.Trixel` is built.  A trixel's bounding-cone
    terms — its axis longitude, the cos and sin of its axis latitude and its
    circumradius — are computed with exactly the float operations of
    :func:`~repro.htm.geometry.triangle_circumcircle`, then
    :func:`~repro.htm.geometry.radec_from_vector`, then the Vincenty
    ``angular_separation`` (``tests/htm/separation_reference.py``), in their
    order, and children's corners with those of ``Trixel.children``, so
    every reject/accept decision and every range is bit-identical to
    building the trixels and calling those functions.  The terms of trixels at levels up
    to :data:`COVER_MEMO_LEVEL` are memoised in ``mesh.cover_terms``: they
    depend only on the trixel's corners, which every mesh derives alike, so
    a memoised value is the value the computation would give again, and the
    memo never holds more than 2,728 entries.  Pass one mesh to many covers
    to share it.

    Raises ``ValueError`` for a negative or non-finite *radius_deg* and for
    a *cover_level* outside ``[0, leaf_level]``.
    """
    if not math.isfinite(radius_deg) or radius_deg < 0:
        raise ValueError(f"radius must be finite and non-negative, not {radius_deg!r}")
    if cover_level < 0:
        raise ValueError("cover_level must be non-negative")
    if cover_level > leaf_level:
        raise ValueError("cover_level cannot exceed leaf_level")
    mesh = mesh or HTMMesh()
    memo, memo_level = mesh.cover_terms, COVER_MEMO_LEVEL
    sqrt, acos, asin, atan2 = math.sqrt, math.acos, math.asin, math.atan2
    cos, sin, hypot, degrees, radians = math.cos, math.sin, math.hypot, math.degrees, math.radians
    # The center's half of angular_separation, once per cover.
    lon1, lat1 = radians(center.ra), radians(center.dec)
    cos_lat1, sin_lat1 = cos(lat1), sin(lat1)
    accepted: List[HTMRange] = []
    stack = [(trixel.htm_id, 0, trixel.corners) for trixel in mesh.root_trixels()]
    pop, extend = stack.pop, stack.extend
    while stack:
        htm_id, level, corners = pop()
        terms = memo.get(htm_id) if level <= memo_level else None
        if terms is not None:
            lon2, cos_lat2, sin_lat2, circum_radius = terms
        else:
            # triangle_circumcircle(corners) ...
            c0, c1, c2 = corners
            ux, uy, uz = c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2]
            vx, vy, vz = c2[0] - c1[0], c2[1] - c1[1], c2[2] - c1[2]
            x, y, z = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            norm = sqrt(x * x + y * y + z * z)
            if norm == 0.0:
                # Collinear corners: triangle_circumcircle's centroid fallback, as is.
                axis, circum_radius = triangle_circumcircle(corners)
                axis_ra, axis_dec = radec_from_vector(axis)
            else:
                x, y, z = x / norm, y / norm, z / norm
                if x * c0[0] + y * c0[1] + z * c0[2] < 0:
                    x, y, z = -x, -y, -z
                # max(-1.0, min(1.0, d)) without the two calls (NaN included).
                d = x * c0[0] + y * c0[1] + z * c0[2]
                d = d if d < 1.0 else 1.0
                d = d if d > -1.0 else -1.0
                circum_radius = degrees(acos(d))
                # ... radec_from_vector(axis) ...
                norm = sqrt(x * x + y * y + z * z)
                x, y, z = x / norm, y / norm, z / norm
                z = z if z < 1.0 else 1.0
                z = z if z > -1.0 else -1.0
                axis_dec = degrees(asin(z))
                axis_ra = degrees(atan2(y, x)) % 360.0
            # ... and angular_separation's half for the axis.
            lon2, lat2 = radians(axis_ra), radians(axis_dec)
            cos_lat2, sin_lat2 = cos(lat2), sin(lat2)
            if level <= memo_level:
                memo[htm_id] = (lon2, cos_lat2, sin_lat2, circum_radius)
        # angular_separation(center, axis), in its order.
        dlon = lon2 - lon1
        cos_dlon = cos(dlon)
        num = hypot(
            cos_lat2 * sin(dlon),
            cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon,
        )
        den = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * cos_dlon
        separation = degrees(atan2(num, den))
        if separation > radius_deg + circum_radius:
            continue  # disjoint
        if separation + circum_radius <= radius_deg or level >= cover_level:
            accepted.append(range_for_trixel(htm_id, leaf_level))
            continue
        # Trixel.children(): midpoint subdivision, in child order, with
        # geometry.midpoint's arithmetic (the corners of one trixel are never
        # antipodal, so its zero-norm check cannot fire).
        c0, c1, c2 = corners
        x, y, z = c1[0] + c2[0], c1[1] + c2[1], c1[2] + c2[2]
        norm = sqrt(x * x + y * y + z * z)
        w0 = (x / norm, y / norm, z / norm)
        x, y, z = c0[0] + c2[0], c0[1] + c2[1], c0[2] + c2[2]
        norm = sqrt(x * x + y * y + z * z)
        w1 = (x / norm, y / norm, z / norm)
        x, y, z = c0[0] + c1[0], c0[1] + c1[1], c0[2] + c1[2]
        norm = sqrt(x * x + y * y + z * z)
        w2 = (x / norm, y / norm, z / norm)
        base = htm_id << 2
        level += 1
        extend(
            (
                (base, level, (c0, w2, w1)),
                (base + 1, level, (c1, w0, w2)),
                (base + 2, level, (c2, w1, w0)),
                (base + 3, level, (w0, w1, w2)),
            )
        )
    return HTMRangeSet(accepted)

