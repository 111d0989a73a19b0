"""Reference implementations of the spatial join: the row merge and a brute force.

``merge_join`` is the row-at-a-time plane-sweep merge
``HybridJoinEvaluator._merge_join`` ran over an in-memory bucket's rows
before every full-fidelity bucket became a ``.lrbs`` column block, moved
here verbatim.  ``crossmatch_catalogs`` is the whole-catalog reference join
(filter by HTM range, refine by distance), and ``to_crossmatch_objects``
turns catalog rows into the workload objects both sides are fed.  Nothing in
``src/`` calls them; tests compare the columnar kernel against them.
``SMALL_BUCKET_COST`` prices the small stores those tests ingest.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.objects import CatalogTable, CelestialObject
from repro.core.kernels import MatchedPair
from repro.core.metrics import CostModel
from repro.core.workload_manager import WorkloadEntry
from repro.htm import ids as htm_ids
from repro.htm.curve import HTMRange, cone_cover
from repro.htm.geometry import SkyPoint, angular_separation
from repro.htm.mesh import HTMMesh
from repro.workload.query import CrossMatchObject

#: Default probabilistic match radius: SkyQuery-style cross-matches use a
#: few arcseconds to absorb astrometric error between surveys.
DEFAULT_MATCH_RADIUS_ARCSEC = 3.0

#: The cost model of a store of 4 MB, 100-object buckets on
#: ``calibrated_disk_for_bucket_read(4.0, 0.2)``: a 200 ms bucket read, and
#: two random 8 KB page reads per indexed match.
SMALL_BUCKET_COST = CostModel(
    tb_ms=200.0, index_probe_ms=24.734375, bucket_objects=100, bucket_megabytes=4.0
)


def separation_arcsec(obj: CrossMatchObject, candidate: object) -> Optional[float]:
    """Great-circle distance in arc-seconds; ``None`` when a position is missing."""
    if obj.ra is None or obj.dec is None:
        return None
    ra = getattr(candidate, "ra", None)
    dec = getattr(candidate, "dec", None)
    if ra is None or dec is None:
        return None
    return angular_separation(obj.ra, obj.dec, ra, dec) * 3600.0


def refine_candidates(
    query_id: int,
    obj: CrossMatchObject,
    ids: Sequence[int],
    rows: Sequence[object],
    matches: List[MatchedPair],
) -> int:
    """Refine one workload object against the rows' candidate window."""
    low = bisect.bisect_left(ids, obj.htm_range.low)
    high = bisect.bisect_right(ids, obj.htm_range.high)
    found = 0
    for candidate in rows[low:high]:
        separation = separation_arcsec(obj, candidate)
        if separation is not None and separation <= obj.match_radius_arcsec:
            matches.append(MatchedPair(query_id, obj, candidate, separation))
            found += 1
    return found


def merge_join(
    rows: Sequence[CelestialObject], entries: Sequence[WorkloadEntry]
) -> Tuple[List[MatchedPair], Dict[int, int]]:
    """Plane-sweep merge of a workload queue against one bucket's HTM-sorted rows.

    The workload side is sorted by the start of each object's HTM window,
    then each object's candidate window is located by binary search and
    refined by distance, in that order.
    """
    matches: List[MatchedPair] = []
    per_query: Dict[int, int] = {}
    if not rows:
        return matches, per_query
    ids = [row.htm_id for row in rows]
    flattened: List[Tuple[int, CrossMatchObject]] = []
    for entry in entries:
        for obj in entry.objects:
            flattened.append((entry.query_id, obj))
    flattened.sort(key=lambda pair: pair[1].htm_range.low)
    for query_id, obj in flattened:
        per_query.setdefault(query_id, 0)
        per_query[query_id] += refine_candidates(query_id, obj, ids, rows, matches)
    return matches, per_query


def range_scan(catalog: CatalogTable, htm_range: HTMRange) -> Sequence[CelestialObject]:
    """The rows of *catalog* whose HTM ID falls inside *htm_range*."""
    low = bisect.bisect_left(catalog.htm_ids, htm_range.low)
    high = bisect.bisect_right(catalog.htm_ids, htm_range.high)
    return catalog.rows[low:high]


def crossmatch_catalogs(
    incoming: Sequence[CrossMatchObject],
    catalog: CatalogTable,
    match_radius_arcsec: Optional[float] = None,
) -> List[Tuple[CrossMatchObject, CelestialObject]]:
    """Brute-force probabilistic spatial join of *incoming* against a whole catalog.

    Quadratic in the worst case but evaluated only over the coarse-filter
    candidates; the ground truth for any batched, bucketed evaluation.
    """
    pairs: List[Tuple[CrossMatchObject, CelestialObject]] = []
    for obj in incoming:
        radius = match_radius_arcsec if match_radius_arcsec is not None else obj.match_radius_arcsec
        candidates = range_scan(catalog, obj.htm_range)
        if obj.ra is None or obj.dec is None:
            continue
        for candidate in candidates:
            separation = angular_separation(obj.ra, obj.dec, candidate.ra, candidate.dec) * 3600.0
            if separation <= radius:
                pairs.append((obj, candidate))
    return pairs


def error_circle_range(
    obj: CelestialObject,
    radius_arcsec: float,
    mesh: Optional[HTMMesh] = None,
    leaf_level: int = htm_ids.SKYQUERY_LEVEL,
) -> HTMRange:
    """HTM bounding range of an object's error circle.

    A tight cover of an arcsecond-scale circle would be a handful of
    level-14 trixels; a single contiguous range spanning them is what the
    paper's per-object bounding box is, so the cover is collapsed to its
    overall (low, high) envelope.
    """
    mesh = mesh or HTMMesh()
    cover = cone_cover(
        SkyPoint(obj.ra, obj.dec),
        radius_arcsec / 3600.0,
        cover_level=min(12, leaf_level),
        leaf_level=leaf_level,
        mesh=mesh,
    )
    ranges = cover.ranges
    if not ranges:
        return HTMRange(obj.htm_id, obj.htm_id)
    return HTMRange(ranges[0].low, ranges[-1].high)


def to_crossmatch_objects(
    objects: Iterable[CelestialObject],
    match_radius_arcsec: float = DEFAULT_MATCH_RADIUS_ARCSEC,
    mesh: Optional[HTMMesh] = None,
) -> List[CrossMatchObject]:
    """Convert catalog rows into the cross-match objects a query ships to the site."""
    mesh = mesh or HTMMesh()
    return [
        CrossMatchObject(
            object_id=obj.object_id,
            htm_range=error_circle_range(obj, match_radius_arcsec, mesh),
            ra=obj.ra,
            dec=obj.dec,
            match_radius_arcsec=match_radius_arcsec,
            magnitude=obj.magnitude,
        )
        for obj in objects
    ]
