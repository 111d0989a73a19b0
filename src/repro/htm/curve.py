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

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.htm import ids as htm_ids
from repro.htm.geometry import SkyPoint, angular_separation, radec_from_vector
from repro.htm.mesh import HTMMesh, Trixel


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
        if separation + circum_radius <= radius_deg or trixel.level >= cover_level:
            accepted.append(range_for_trixel(trixel.htm_id, leaf_level))
            continue
        stack.extend(trixel.children())
    return HTMRangeSet(accepted)

