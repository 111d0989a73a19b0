"""The cross-match query model.

A cross-match query, as it reaches the site, is "a list
of objects to be cross-matched", each object carrying "its mean cartesian
coordinate and a range of HTM ID values, which serve as a bounding box
covering all potential regions for cross matching" (§3.1).  The query's
result is the union of the per-bucket sub-query results, so sub-queries can
be evaluated in any order — the property LifeRaft's data-driven scheduling
relies on.

Two representations are supported and can be mixed freely:

* **explicit objects** (:attr:`CrossMatchQuery.objects`) — joined row by
  row against a ``.lrbs`` store's column blocks (full fidelity);
* **bucket footprints** (:attr:`CrossMatchQuery.bucket_footprint`) — an
  aggregated ``{bucket index: object count}`` mapping used by the scaled
  experiments, where materialising millions of per-object rows would add
  nothing (only counts enter the cost model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.htm.curve import HTMRange
from repro.htm.geometry import SkyPoint


class QueryStatus(enum.Enum):
    """Lifecycle of a query inside the scheduler."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class CrossMatchObject:
    """One object shipped to a site to be cross-matched against its catalog.

    Attributes
    ----------
    object_id:
        Identifier of the object within its parent query.
    htm_range:
        Bounding box of potential matches, as a range of leaf-level HTM IDs.
    ra, dec:
        Mean position in degrees (``None`` for abstract workload objects).
    match_radius_arcsec:
        Radius of the probabilistic match; positional error circles in the
        SkyQuery cross-match are arcsecond scale.
    magnitude:
        Magnitude carried along for query-specific predicates.
    """

    object_id: int
    htm_range: HTMRange
    ra: Optional[float] = None
    dec: Optional[float] = None
    match_radius_arcsec: float = 2.0
    magnitude: float = 20.0


@dataclass
class CrossMatchQuery:
    """A cross-match query as submitted to one site.

    Attributes
    ----------
    query_id:
        Trace-unique identifier.
    objects:
        Explicit objects to be cross-matched (may be empty when
        ``bucket_footprint`` is supplied instead).
    bucket_footprint:
        Aggregated ``{bucket index: object count}`` workload description.
    arrival_time_s:
        Arrival time in simulated seconds.
    archives:
        Names of the archives the full SkyQuery query joins; informational
        at a single site (traces record them).
    predicate:
        Optional per-row predicate applied to matched pairs ("query specific
        predicates are applied on the output tuples that succeed in the
        spatial join", §3.1).
    region:
        Optional ``(center, radius_deg)`` describing the sky region the
        query explores.
    client_id:
        Submitting client, when the trace knows it (recorded traces and
        the serving scenarios).  ``None`` lets the serving front-end fall
        back to its hash-based client assignment.
    deadline_class:
        SLA class name carried by the trace (``"interactive"``,
        ``"standard"``, ``"batch"``); ``None`` lets the front-end draw one
        from its configured deadline mix.
    """

    query_id: int
    objects: Tuple[CrossMatchObject, ...] = ()
    bucket_footprint: Optional[Dict[int, int]] = None
    arrival_time_s: float = 0.0
    archives: Tuple[str, ...] = ("twomass", "sdss")
    predicate: Optional[Callable[[object], bool]] = None
    region: Optional[Tuple[SkyPoint, float]] = None
    client_id: Optional[int] = None
    deadline_class: Optional[str] = None
    status: QueryStatus = QueryStatus.PENDING

    def __post_init__(self) -> None:
        if not self.objects and not self.bucket_footprint:
            raise ValueError(
                f"query {self.query_id} needs explicit objects or a bucket footprint"
            )
        if self.bucket_footprint is not None:
            bad = {b: c for b, c in self.bucket_footprint.items() if c <= 0}
            if bad:
                raise ValueError(f"query {self.query_id} has non-positive footprint entries: {bad}")

    @property
    def object_count(self) -> int:
        """Total number of objects this query asks the site to cross-match."""
        if self.objects:
            return len(self.objects)
        assert self.bucket_footprint is not None
        return sum(self.bucket_footprint.values())

    def with_arrival_time(self, arrival_time_s: float) -> "CrossMatchQuery":
        """Return a copy of the query with a different arrival time."""
        return CrossMatchQuery(
            query_id=self.query_id,
            objects=self.objects,
            bucket_footprint=dict(self.bucket_footprint) if self.bucket_footprint else None,
            arrival_time_s=arrival_time_s,
            archives=self.archives,
            predicate=self.predicate,
            region=self.region,
            client_id=self.client_id,
            deadline_class=self.deadline_class,
        )
