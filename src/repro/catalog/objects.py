"""Row types and in-memory catalog tables.

A :class:`CelestialObject` is one observation of the primary fact table —
the table on which cross-matching is performed.  Every object carries its
level-14 HTM ID (the 32-bit integer SkyQuery assigns, §3.1), which both
orders the table along the space-filling curve and is the join key used by
the filter step of the cross-match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence


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
