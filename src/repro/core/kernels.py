"""Whole-column crossmatch kernels over decoded bucket pages.

This is the one implementation of the spatial join: every full-fidelity
bucket service runs it over the bucket's ``.lrbs`` column block.
OLA-RAW's lesson (and the point of the ``.lrbs`` columnar layout) is
that in-situ evaluation should run column-at-a-time over the stored
representation: these kernels take a zero-copy
:class:`~repro.storage.format.ColumnBlock` — memoryview casts straight
over the reader's mmap — and only materialise
:class:`~repro.catalog.objects.CelestialObject` rows when a consumer reads
the matches, i.e. at the result boundary.

A bucket service costs arithmetic in proportion to its *matches*, not to
candidates × libm calls:

* every catalog row's trigonometry is computed once per cached block
  (:meth:`ColumnBlock.derived`), every workload object's once per service;
* a candidate is dropped on its declination alone, before any libm call,
  when ``|dec2 - dec1|`` exceeds the match radius (see :data:`BAND_SLACK_RAD`);
* survivors run the Vincenty operations of
  :func:`repro.htm.geometry.angular_separation`, in its order, on those
  precomputed values, so every separation is bit-equal to
  ``angular_separation(...) * 3600.0``;
* matches are kept as parallel columns (:class:`MatchColumns`) and become
  :class:`MatchedPair` objects only for a consumer that reads them.

The output is object-for-object that of a row-at-a-time merge join over
the same rows (same binary-searched candidate window, same separations,
same order): ``tests/core/join_oracle.py`` keeps that merge as the
reference, and the property tests in ``tests/core/test_kernels.py`` pin
the equivalence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.workload_manager import WorkloadEntry
from repro.storage.format import ColumnBlock
from repro.workload.query import CrossMatchObject

#: Added to the declination band, in radians (≈ 0.0002 arcsec).
#:
#: Two points on the sphere are at least ``|lat2 - lat1|`` apart (for
#: latitudes within ±90°), so a candidate whose declination differs from the
#: workload object's by more than the match radius cannot match, and the
#: band test ``|lat2 - lat1| > radians(radius / 3600) + slack`` may drop it
#: unseen.  The slack covers the rounding that separates the *computed*
#: separation from the true one: sin/cos within an ulp of values <= 1, a
#: handful of products and sums of such values, ``hypot`` and ``atan2``
#: (whose result moves by at most the absolute error of its arguments,
#: because ``num² + den² ≈ 1``), the rounding of ``lon2 - lon1``, and the
#: three conversions between arc-seconds and radians on either side of the
#: comparison — together below 1e-14 rad absolute at any radius up to 360°.
#: 1e-9 is five orders of magnitude above that and far below any radius
#: anyone matches with, so the band never drops a pair Vincenty would
#: accept and admits practically none it would not.
BAND_SLACK_RAD = 1.0e-9


@dataclass(frozen=True)
class MatchedPair:
    """One successful cross-match: a workload object and a catalog row."""

    query_id: int
    workload_object: CrossMatchObject
    catalog_object: object
    separation_arcsec: float


class MatchColumns(SequenceABC):
    """The matches of one bucket service, as four parallel columns.

    A read-only ``Sequence[MatchedPair]``: pairs are built when someone
    iterates or indexes, over the block's shared :meth:`ColumnBlock.rows`
    memo (one ``CelestialObject`` per catalog row per cached block, however
    many pairs name it).  A service whose matches are only counted — every
    engine, backend and telemetry path — never builds a pair or a row.

    The columns reference the decoded block, and so keep it (and the mmap
    under it) alive for as long as the result is, exactly as a cached block
    does: matches stay readable after the store is closed and after the
    block has left both cache tiers.
    """

    __slots__ = ("_block", "_query_ids", "_objects", "_row_indices", "_separations")

    def __init__(
        self,
        block: ColumnBlock,
        query_ids: List[int],
        objects: List[CrossMatchObject],
        row_indices: List[int],
        separations: List[float],
    ) -> None:
        self._block = block
        self._query_ids = query_ids
        self._objects = objects
        self._row_indices = row_indices
        self._separations = separations

    def __len__(self) -> int:
        return len(self._row_indices)

    def __iter__(self) -> Iterator[MatchedPair]:
        if not self._row_indices:
            return iter(())
        rows = self._block.rows()
        return map(
            MatchedPair,
            self._query_ids,
            self._objects,
            map(rows.__getitem__, self._row_indices),
            self._separations,
        )

    def __getitem__(self, index: int) -> MatchedPair:
        return MatchedPair(
            self._query_ids[index],
            self._objects[index],
            self._block.rows()[self._row_indices[index]],
            self._separations[index],
        )

    def __repr__(self) -> str:
        return f"MatchColumns({len(self)} matches)"


def _sweep(
    block: ColumnBlock,
    pairs: Sequence[Tuple[int, CrossMatchObject]],
    per_query: Dict[int, int],
) -> MatchColumns:
    """Refine ``(query id, object)`` *pairs*, in order, against *block*.

    The one copy of the window search and of the refinement arithmetic.
    The block's derived columns are requested at the first non-empty
    candidate window — never for footprint-only entries (no objects) — and
    until then the windows are searched over the stored HTM column.
    """
    radians, degrees, inf = math.radians, math.degrees, math.inf
    sin, cos, hypot, atan2 = math.sin, math.cos, math.hypot, math.atan2
    query_ids: List[int] = []
    objects: List[CrossMatchObject] = []
    row_indices: List[int] = []
    separations: List[float] = []
    add_query_id, add_object = query_ids.append, objects.append
    add_row_index, add_separation = row_indices.append, separations.append
    columns = block.derived() if block.has_derived else None
    if columns is None:
        ids = block.htm_ids
    else:
        ids, lons, band_lats, cos_lats, sin_lats = columns
    for query_id, obj in pairs:
        per_query.setdefault(query_id, 0)
        ra1, dec1 = obj.ra, obj.dec
        if ra1 is None or dec1 is None:
            continue
        htm_range = obj.htm_range
        low = bisect_left(ids, htm_range.low)
        high = bisect_right(ids, htm_range.high, low)
        if low == high:
            continue
        if columns is None:
            columns = block.derived()
            ids, lons, band_lats, cos_lats, sin_lats = columns
        radius = obj.match_radius_arcsec
        lon1, lat1 = radians(ra1), radians(dec1)
        cos_lat1, sin_lat1 = cos(lat1), sin(lat1)
        # The band argument needs both latitudes within ±90°: rows outside
        # it carry a NaN band latitude (which no comparison rejects), an
        # object outside it gets no band at all.
        band = radians(radius / 3600.0) + BAND_SLACK_RAD if -90.0 <= dec1 <= 90.0 else inf
        found = 0
        for i in range(low, high):
            if abs(band_lats[i] - lat1) > band:
                continue
            # From here on: angular_separation's operations, in its order.
            dlon = lons[i] - lon1
            cos_dlon = cos(dlon)
            cos_lat2, sin_lat2 = cos_lats[i], sin_lats[i]
            num = hypot(
                cos_lat2 * sin(dlon),
                cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon,
            )
            den = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * cos_dlon
            separation = degrees(atan2(num, den)) * 3600.0
            if separation <= radius:
                add_query_id(query_id)
                add_object(obj)
                add_row_index(i)
                add_separation(separation)
                found += 1
        if found:
            per_query[query_id] += found
    return MatchColumns(block, query_ids, objects, row_indices, separations)


def crossmatch_block(
    block: ColumnBlock, entries: Sequence[WorkloadEntry]
) -> Tuple[Sequence[MatchedPair], Dict[int, int]]:
    """Plane-sweep merge of a workload queue against one column block.

    The workload side is sorted by the start of each object's HTM window,
    then every object is refined against its binary-searched candidate
    window, in order.
    """
    flattened: List[Tuple[int, CrossMatchObject]] = []
    if len(block) > 0:
        flattened = [(entry.query_id, obj) for entry in entries for obj in entry.objects]
    if not flattened:
        # An empty block, or footprint-only entries (the service is charged,
        # nothing is joined): no matches, and no memo built.
        return [], {}
    flattened.sort(key=lambda pair: pair[1].htm_range.low)
    per_query: Dict[int, int] = {}
    return _sweep(block, flattened, per_query), per_query


__all__ = ["BAND_SLACK_RAD", "MatchColumns", "MatchedPair", "crossmatch_block"]
