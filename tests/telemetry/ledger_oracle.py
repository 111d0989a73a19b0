"""Reference implementation of the per-query cost ledger.

This is ``repro.telemetry.ledger.build_run_ledger`` as it was before the
builder read plain rows: every record is normalised to a frozen
:class:`LedgerService`, sorted by its full-field ``sort_key``, and each
served bucket's object count is looked up through a per-pair
``dict(zip(queries_served, objects_served))``.  Nothing in ``src/`` calls
it; tests require the live builder's ledger to equal it, with ``==`` and
byte for byte as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.ledger import LEDGER_VERSION, _admission_story


@dataclass(frozen=True)
class LedgerService:
    """One bucket service normalised to what the ledger needs.

    Deliberately carries **no worker id**: bucket service timelines are
    pure functions of the bucket's admitted arrivals, so dropping the
    (topology-dependent) worker id is what makes a one-worker parallel
    ledger bit-identical to the serial engine's.
    """

    bucket_index: int
    started_at_ms: float
    finished_at_ms: float
    io_ms: float
    match_ms: float
    queries_served: Tuple[int, ...]
    objects_served: Tuple[int, ...]

    @property
    def cost_ms(self) -> float:
        """Service time of the batch."""
        return self.finished_at_ms - self.started_at_ms

    @property
    def shared_by(self) -> int:
        """How many co-batched queries amortised this service."""
        return max(1, len(self.queries_served))

    def sort_key(self) -> tuple:
        """A total order independent of arrival order (merge canonicaliser).

        Covers *every* field: colliding prefixes with different payloads
        would otherwise fall back to (stable-sort) input order, breaking
        the order-insensitivity guarantee the hypothesis tests pin down.
        """
        return (
            self.started_at_ms,
            self.finished_at_ms,
            self.bucket_index,
            self.queries_served,
            self.objects_served,
            self.io_ms,
            self.match_ms,
        )


def normalize_service(record) -> LedgerService:
    """A parallel ``BatchRecord`` or a serial ``BatchResult``: both name
    the bucket, the I/O and match split and the per-query objects alike."""
    return LedgerService(
        bucket_index=record.bucket_index,
        started_at_ms=record.started_at_ms,
        finished_at_ms=record.finished_at_ms,
        io_ms=record.io_ms,
        match_ms=record.match_ms,
        queries_served=tuple(record.queries_served),
        objects_served=tuple(record.objects_served),
    )


def oracle_run_ledger(
    services: Iterable,
    admission_records: Sequence = (),
    steal_records: Sequence = (),
    arrivals_ms: Optional[Mapping[int, float]] = None,
) -> dict:
    """Assemble one run's per-query cost ledger as a JSON-ready dict.

    *services* may arrive in any order and from any mixture of per-worker
    fragments — the builder canonicalises internally, so merging is
    order-insensitive (concatenation commutes).  *arrivals_ms* supplies
    the original client arrival per query id; when absent, a query's
    arrival falls back to its first gate instant (serving runs) and then
    to its first service start.

    Only queries that received at least one bucket service appear:
    rejected and no-overlap arrivals have no cost to decompose.
    """
    normalised = sorted(
        (normalize_service(record) for record in services),
        key=LedgerService.sort_key,
    )
    first_seen, admitted_at, defers = _admission_story(admission_records)
    arrivals = dict(arrivals_ms or {})
    steals_by_bucket: Dict[int, List[float]] = {}
    for record in steal_records:
        steals_by_bucket.setdefault(record.bucket_index, []).append(record.time_ms)

    per_query: Dict[int, List[LedgerService]] = {}
    for service in normalised:
        for query_id in service.queries_served:
            per_query.setdefault(query_id, []).append(service)

    entries: List[dict] = []
    for query_id in sorted(per_query):
        chain = per_query[query_id]
        first_service_ms = chain[0].started_at_ms
        completion_ms = max(service.finished_at_ms for service in chain)
        submit_ms = admitted_at.get(query_id)
        arrival_ms = arrivals.get(query_id)
        if arrival_ms is None:
            arrival_ms = first_seen.get(query_id)
        if arrival_ms is None:
            arrival_ms = first_service_ms if submit_ms is None else submit_ms
        if submit_ms is None:
            # No gate in front of the engines: hand-off is the arrival.
            submit_ms = arrival_ms
        service_ms = 0.0
        attributed_service_ms = 0.0
        io_ms = 0.0
        attributed_io_ms = 0.0
        match_ms = 0.0
        cache_hits = 0
        io_services = 0
        steal_migrations = 0
        steal_wait_ms = 0.0
        buckets: List[dict] = []
        for service in chain:
            shared_by = service.shared_by
            cost = service.cost_ms
            service_ms += cost
            attributed_service_ms += cost / shared_by
            io_ms += service.io_ms
            attributed_io_ms += service.io_ms / shared_by
            match_ms += service.match_ms
            if service.io_ms > 0.0:
                io_services += 1
            else:
                cache_hits += 1
            for steal_ms in steals_by_bucket.get(service.bucket_index, ()):
                # A migration between this query's arrival and the bucket's
                # eventual service delayed that service by the remaining
                # wait; with stealing off this term is identically zero.
                if arrival_ms <= steal_ms <= service.started_at_ms:
                    steal_migrations += 1
                    steal_wait_ms += service.started_at_ms - steal_ms
            counts = dict(zip(service.queries_served, service.objects_served))
            buckets.append(
                {
                    "bucket": service.bucket_index,
                    "shared_by": shared_by,
                    "service_ms": cost,
                    "io_ms": service.io_ms,
                    "objects": counts.get(query_id, 0),
                }
            )
        entries.append(
            {
                "query_id": query_id,
                "arrival_ms": arrival_ms,
                "submit_ms": submit_ms,
                "admission_wait_ms": submit_ms - arrival_ms,
                "defers": defers.get(query_id, 0),
                "first_service_ms": first_service_ms,
                "queue_wait_ms": first_service_ms - submit_ms,
                "completion_ms": completion_ms,
                "makespan_ms": completion_ms - arrival_ms,
                "services": len(chain),
                "service_ms": service_ms,
                "attributed_service_ms": attributed_service_ms,
                "io_ms": io_ms,
                "attributed_io_ms": attributed_io_ms,
                "match_ms": match_ms,
                "cache_hit_services": cache_hits,
                "io_services": io_services,
                "steal_migrations": steal_migrations,
                "steal_wait_ms": steal_wait_ms,
                "buckets": buckets,
            }
        )

    totals = {
        "queries": len(entries),
        "services": len(normalised),
        "service_ms": sum(entry["service_ms"] for entry in entries),
        "attributed_service_ms": sum(
            entry["attributed_service_ms"] for entry in entries
        ),
        "io_ms": sum(entry["io_ms"] for entry in entries),
        "makespan_ms": sum(entry["makespan_ms"] for entry in entries),
        "admission_wait_ms": sum(entry["admission_wait_ms"] for entry in entries),
        "steal_wait_ms": sum(entry["steal_wait_ms"] for entry in entries),
    }
    return {"version": LEDGER_VERSION, "queries": entries, "totals": totals}
