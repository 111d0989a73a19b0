"""Row types and in-memory catalog tables.

A :class:`CelestialObject` is one observation of the primary fact table —
the table on which cross-matching is performed.  Every object carries its
level-14 HTM ID (the 32-bit integer SkyQuery assigns, §3.1), which both
orders the table along the space-filling curve and is the join key used by
the filter step of the cross-match.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence


@dataclass(frozen=True)
class CelestialObject:
    """One observation of a survey catalog.

    Attributes
    ----------
    object_id:
        Survey-unique identifier.
    ra, dec:
        Position in degrees.
    htm_id:
        Level-14 HTM ID of the position (the clustering key).
    magnitude:
        Apparent magnitude; used by query predicates in the examples.
    survey:
        Short name of the survey the observation belongs to.
    """

    object_id: int
    ra: float
    dec: float
    htm_id: int
    magnitude: float = 20.0
    survey: str = "sdss"


class CatalogTable:
    """An in-memory fact table kept sorted by HTM ID.

    The table is the unit handed to the partitioner and the bucket store.
    It deliberately stays simple — a sorted list — because the point of the
    reproduction is the scheduler above it, not the storage engine below.
    """

    def __init__(self, survey: str, objects: Iterable[CelestialObject] = ()) -> None:
        self.survey = survey
        rows = sorted(objects, key=lambda o: o.htm_id)
        self._rows: List[CelestialObject] = rows
        self._ids: List[int] = [o.htm_id for o in rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[CelestialObject]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> CelestialObject:
        return self._rows[index]

    @property
    def rows(self) -> Sequence[CelestialObject]:
        """All rows in HTM order."""
        return self._rows

    @property
    def htm_ids(self) -> Sequence[int]:
        """HTM IDs aligned with :attr:`rows`."""
        return self._ids

    def insert(self, obj: CelestialObject) -> None:
        """Insert one object, keeping HTM order."""
        position = bisect.bisect_right(self._ids, obj.htm_id)
        self._ids.insert(position, obj.htm_id)
        self._rows.insert(position, obj)

    def extend(self, objects: Iterable[CelestialObject]) -> None:
        """Bulk-insert objects (re-sorts once; cheaper than repeated inserts)."""
        self._rows.extend(objects)
        self._rows.sort(key=lambda o: o.htm_id)
        self._ids = [o.htm_id for o in self._rows]

    def describe(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "rows": float(len(self._rows)),
            "min_htm_id": float(self._ids[0]) if self._ids else 0.0,
            "max_htm_id": float(self._ids[-1]) if self._ids else 0.0,
        }
