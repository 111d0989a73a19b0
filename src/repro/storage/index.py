"""A sorted spatial index over HTM IDs with probe-cost accounting.

SkyQuery's existing evaluation strategy answers every cross-match through
the spatial index; LifeRaft keeps the index around for two purposes:

* the **hybrid join strategy** (§3.4) uses an indexed join instead of a
  bucket scan when a workload queue is small, and
* the **IndexOnly baseline** in the evaluation (the approach "seven times
  slower than even NoShare") is modelled by charging every object an index
  probe plus the random page reads needed to fetch candidate rows.

The index is a simple sorted array over (HTM ID, row) pairs — functionally
a B+-tree leaf level.  Probe results report how many random pages were
touched so the disk model can price the lookup.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.htm.curve import HTMRange, HTMRangeSet
from repro.storage.disk_model import DiskModel

#: Rows per 8 KB leaf page; an SDSS photo object row is a few hundred bytes.
DEFAULT_ROWS_PER_PAGE = 32


@dataclass
class IndexProbeResult:
    """Outcome of one index range probe."""

    rows: Tuple[object, ...]
    pages_read: int
    cost_ms: float

    @property
    def row_count(self) -> int:
        """Number of rows returned by the probe."""
        return len(self.rows)


class SpatialIndex:
    """Clustered index over the catalog's HTM IDs.

    Parameters
    ----------
    htm_ids:
        Sorted HTM IDs of the indexed rows.
    rows:
        Rows aligned with ``htm_ids``; may be omitted for a virtual index
        that only reports costs and counts.
    rows_per_page:
        Leaf fan-out used to convert matched rows into page reads.
    disk:
        Disk model charged for probes; when ``None`` probes report zero cost
        (pure count mode).
    """

    def __init__(
        self,
        htm_ids: Sequence[int],
        rows: Optional[Sequence[object]] = None,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        disk: Optional[DiskModel] = None,
    ) -> None:
        if rows is not None and len(rows) != len(htm_ids):
            raise ValueError("rows must align with htm_ids")
        if any(htm_ids[i] > htm_ids[i + 1] for i in range(len(htm_ids) - 1)):
            raise ValueError("htm_ids must be sorted")
        if rows_per_page <= 0:
            raise ValueError("rows_per_page must be positive")
        self._ids: List[int] = list(htm_ids)
        self._rows: Optional[List[object]] = list(rows) if rows is not None else None
        self.rows_per_page = rows_per_page
        self.disk = disk
        self.probes = 0

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def height(self) -> int:
        """Height of the equivalent B+-tree (internal levels touched per probe)."""
        if not self._ids:
            return 1
        leaves = max(1, math.ceil(len(self._ids) / self.rows_per_page))
        # ~200 separators per internal page.
        return max(1, math.ceil(math.log(leaves, 200)) if leaves > 1 else 1)

    def probe_range(self, htm_range: HTMRange) -> IndexProbeResult:
        """Return rows whose HTM ID falls inside *htm_range* and the probe cost."""
        low = bisect.bisect_left(self._ids, htm_range.low)
        high = bisect.bisect_right(self._ids, htm_range.high)
        matched = high - low
        pages = self.height + max(1, math.ceil(matched / self.rows_per_page))
        cost = 0.0
        if self.disk is not None:
            cost = self.disk.index_probe_ms(pages)
        rows: Tuple[object, ...] = ()
        if self._rows is not None:
            rows = tuple(self._rows[low:high])
        self.probes += 1
        return IndexProbeResult(rows, pages, cost)

    def probe_ranges(self, ranges: HTMRangeSet) -> IndexProbeResult:
        """Probe every range of a cover and merge the results."""
        all_rows: List[object] = []
        pages = 0
        cost = 0.0
        for htm_range in ranges:
            result = self.probe_range(htm_range)
            all_rows.extend(result.rows)
            pages += result.pages_read
            cost += result.cost_ms
        return IndexProbeResult(tuple(all_rows), pages, cost)

    def count_range(self, htm_range: HTMRange) -> int:
        """Number of rows in *htm_range* without charging any I/O."""
        low = bisect.bisect_left(self._ids, htm_range.low)
        high = bisect.bisect_right(self._ids, htm_range.high)
        return high - low

    def estimated_probe_cost_ms(self, expected_rows: int) -> float:
        """Cost estimate for a probe returning *expected_rows* rows.

        Used by the hybrid join strategy to compare an indexed join against
        a sequential bucket scan without actually touching the index.
        """
        if self.disk is None:
            return 0.0
        pages = self.height + max(1, math.ceil(max(0, expected_rows) / self.rows_per_page))
        parameters = self.disk.parameters
        per_page = parameters.positioning_ms + parameters.transfer_ms(
            parameters.page_size_kb / 1024.0
        )
        return pages * per_page
