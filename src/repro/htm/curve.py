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

#: Cone covers memoise the cosine and axis terms of trixels at levels up to
#: this one on their mesh (``HTMMesh.cover_terms``): 8 · (4⁵ − 1) / 3 =
#: 2,728 trixels at most, the shallow ones every cover of a sky visits.
COVER_MEMO_LEVEL = 4

#: The gap, in cosine, by which :func:`cone_cover`'s trig-free test must
#: clear its bound before it decides a trixel (the error bound is there).
FILTER_MARGIN = 1.0e-9


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
    :class:`~repro.htm.mesh.Trixel` is built.  With ``a`` a trixel's axis,
    normalised and oriented as :func:`~repro.htm.geometry.triangle_circumcircle`
    does, ``d = a·c0 = cos R``, ``sin R = sqrt((1 − d)(1 + d))`` (``1 − d``
    is exact, ``1 − d²`` cancels for deep trixels) and ``p`` the center's
    unit vector, the trixel is disjoint when ``a·p < cos r · d − sin r ·
    sin R = cos(r + R)`` and ``d > −cos r`` (``r + R < 180°``, where cos is
    monotone), and never inside when ``d < cos r`` (``R > r``).  Such a test
    decides only when it clears :data:`FILTER_MARGIN` (M = 1e-9): as
    ``|cos u − cos v| ≤ |u − v|``, the true angle is then at least M from
    the bound.  The test's own rounding is below 1e-15 (unit vectors within
    a few ulp, ``sin R`` within a few ulp of ``sin(acos d)`` for the *same*
    ``d``); the exact path's is below 1e-14 rad plus what ``asin`` loses
    near a pole, 2.2e-16 / cos(axis dec), and the axes nearest a pole at
    level L are ≈ 1.1 / 2^L rad from it, so that is below 2.1e-10 at levels
    ≤ 20.  So the test's decision is the exact path's.  (Deeper, a cosine
    gap M at a bound ``b`` is an angle gap M / sin b, so only a cover
    visiting over 10⁷ trixels at that level could reach the pole term.)
    Within the margin, for a trixel shallower than *cover_level* that may be
    inside (``R < r``), for collinear corners (the centroid fallback) and
    for every trixel when ``radius_deg ≥ 180``, :func:`_axis_terms` and
    :func:`_vincenty_separation` decide with exactly the float operations of
    ``triangle_circumcircle`` → ``radec_from_vector`` → the Vincenty
    ``angular_separation`` (``tests/htm/separation_reference.py``), so every
    range is bit-identical to the Trixel walk's; a 3″ level-12 cover takes
    that path ≈ 0.2 times.  Both kinds of terms of levels up to
    :data:`COVER_MEMO_LEVEL` are memoised in ``mesh.cover_terms`` (at most
    2,728 entries; they depend only on the corners, which every mesh derives
    alike).  Pass one mesh to many covers to share it.

    Raises ``ValueError`` for a negative or non-finite *radius_deg*, for a
    non-integer *cover_level* or *leaf_level* and for a *cover_level*
    outside ``[0, leaf_level]``.
    """
    if not math.isfinite(radius_deg) or radius_deg < 0:
        raise ValueError(f"radius must be finite and non-negative, not {radius_deg!r}")
    if not (isinstance(cover_level, int) and isinstance(leaf_level, int)):
        raise ValueError(f"levels must be integers, not {cover_level!r} and {leaf_level!r}")
    if cover_level < 0:
        raise ValueError("cover_level must be non-negative")
    if cover_level > leaf_level:
        raise ValueError("cover_level cannot exceed leaf_level")
    mesh = mesh or HTMMesh()
    memo, memo_level = mesh.cover_terms, COVER_MEMO_LEVEL
    sqrt = math.sqrt
    px, py, pz = center.to_vector()
    r = math.radians(radius_deg)
    cos_r, sin_r = math.cos(r), math.sin(r)
    # An infinite margin fails every cosine test: the exact path decides all.
    margin = FILTER_MARGIN if radius_deg < 180.0 else math.inf
    wrap = margin - cos_r  # d > wrap: cos R > cos(π − r) + M, so r + R < 180°
    # The center's half of angular_separation, once per cover.
    lon1, lat1 = math.radians(center.ra), math.radians(center.dec)
    cos_lat1, sin_lat1 = math.cos(lat1), math.sin(lat1)
    accepted: List[HTMRange] = []
    stack = [(trixel.htm_id, 0, trixel.corners) for trixel in mesh.root_trixels()]
    pop, extend = stack.pop, stack.extend
    while stack:
        htm_id, level, corners = pop()
        terms = memo.get(htm_id) if level <= memo_level else None
        if terms is not None:
            x, y, z, d, sin_R, axis = terms
        else:
            axis = None
            # triangle_circumcircle(corners), in its order.
            c0, c1, c2 = corners
            ux, uy, uz = c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2]
            vx, vy, vz = c2[0] - c1[0], c2[1] - c1[1], c2[2] - c1[2]
            x, y, z = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            norm = sqrt(x * x + y * y + z * z)
            if norm == 0.0:
                (x, y, z), _ = triangle_circumcircle(corners)  # the centroid fallback
            else:
                x, y, z = x / norm, y / norm, z / norm
                if x * c0[0] + y * c0[1] + z * c0[2] < 0:
                    x, y, z = -x, -y, -z
            # max(-1.0, min(1.0, d)) without the two calls (NaN included).
            d = x * c0[0] + y * c0[1] + z * c0[2]
            d = d if d < 1.0 else 1.0
            d = d if d > -1.0 else -1.0
            # A NaN sin R fails every cosine test: the fallback goes the exact path.
            sin_R = sqrt((1.0 - d) * (1.0 + d)) if norm else math.nan
            if level <= memo_level:
                memo[htm_id] = (x, y, z, d, sin_R, None)
        cos_angle = x * px + y * py + z * pz
        low = cos_r * d - sin_r * sin_R  # cos(r + R)
        if cos_angle < low - margin and d > wrap:
            continue  # disjoint
        if cos_angle > low + margin and (level >= cover_level or d < cos_r - margin):
            accept = level >= cover_level  # at cover_level, or never inside (R > r)
        else:
            if axis is None:
                axis = _axis_terms(x, y, z, d)
                if level <= memo_level:
                    memo[htm_id] = (x, y, z, d, sin_R, axis)
            circum_radius = axis[3]
            separation = _vincenty_separation(axis, lon1, cos_lat1, sin_lat1)
            if separation > radius_deg + circum_radius:
                continue  # disjoint
            accept = separation + circum_radius <= radius_deg or level >= cover_level
        if accept:
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


def _axis_terms(x: float, y: float, z: float, d: float) -> Tuple[float, float, float, float]:
    """The Trixel walk's (longitude, cos and sin of latitude, circumradius in
    degrees) for the oriented unit axis ``(x, y, z)`` and clamped ``d``."""
    axis_ra, axis_dec = radec_from_vector((x, y, z))
    lon2, lat2 = math.radians(axis_ra), math.radians(axis_dec)
    return lon2, math.cos(lat2), math.sin(lat2), math.degrees(math.acos(d))


def _vincenty_separation(
    axis: Tuple[float, float, float, float], lon1: float, cos_lat1: float, sin_lat1: float
) -> float:
    """``angular_separation(center, axis)`` in degrees, in its order, from
    :func:`_axis_terms` and the center's precomputed radians."""
    lon2, cos_lat2, sin_lat2, _ = axis
    dlon = lon2 - lon1
    cos_dlon = math.cos(dlon)
    num = math.hypot(
        cos_lat2 * math.sin(dlon),
        cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon,
    )
    den = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * cos_dlon
    return math.degrees(math.atan2(num, den))
