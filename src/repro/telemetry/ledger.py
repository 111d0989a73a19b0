"""The per-query cost ledger: where each query's makespan went.

LifeRaft's thesis is a trade-off — data-driven batching amortises bucket
I/O across queries at the risk of starving individual ones — and the
aggregate metrics (SLA counters, backend-wide series) only report that
trade-off in bulk.  The ledger is the per-query answer: a virtual-domain
decomposition of each query's makespan into deterministic components —
admission gating / backpressure-defer wait, queue wait, bucket service
time, the I/O vs cache-hit split, steal-migration delay — plus a
**sharing attribution**: for every bucket served, how many co-batched
queries amortised the service (the paper's batching benefit, measured
per query).

Ledgers are assembled *after* a run from records the engines already
emit — :class:`~repro.parallel.ipc.BatchRecord` services (which carry
the per-batch I/O and match cost over the ``WorkerResult`` IPC seam),
the front-end's :class:`~repro.service.frontend.AdmissionInstant`
stream, and the steal journal — so building one never perturbs the run
(the zero-perturbation contract: ``result_digest`` is identical with
the ledger enabled or disabled).  Because every input is part of the
deterministic virtual domain, ledgers obey the repo's parity contract:
bit-identical across the serial engine, the virtual backend and the
process backend at any fixed worker count with stealing off, between
the two backends with stealing on, and between a crash-injected
recovery run and its uninterrupted twin (pre-crash records ride the
``.lrcp`` seam via the coordinator's accepted-``seq`` cursor; the
replayed tail re-emits the lost ones bit-for-bit).

Merging is order-insensitive: :func:`build_run_ledger` accepts service
records in *any* order (per-worker fragments concatenated however they
arrive) and canonicalises internally, so coordinators never need to
pre-sort — the hypothesis commutativity tests pin this down.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LEDGER_VERSION",
    "build_run_ledger",
    "diff_ledgers",
    "ledger_entries",
]

#: Schema version of the ledger dict (bumped on incompatible change).
LEDGER_VERSION = 1

#: Per-query numeric fields, in schema order.  ``diff_ledgers`` compares
#: exactly these, so adding a field here extends the compare surface.
_ENTRY_FIELDS = (
    "arrival_ms",
    "submit_ms",
    "admission_wait_ms",
    "defers",
    "first_service_ms",
    "queue_wait_ms",
    "completion_ms",
    "makespan_ms",
    "services",
    "service_ms",
    "attributed_service_ms",
    "io_ms",
    "attributed_io_ms",
    "match_ms",
    "cache_hit_services",
    "io_services",
    "steal_migrations",
    "steal_wait_ms",
)


def _admission_story(
    admission_records: Sequence,
) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, int]]:
    """Per query: first gate instant, admit instant, defer count."""
    first_seen: Dict[int, float] = {}
    admitted_at: Dict[int, float] = {}
    defers: Dict[int, int] = {}
    for record in admission_records:
        query_id = record.query_id
        if query_id not in first_seen:
            first_seen[query_id] = record.time_ms
        if record.outcome == "admit":
            admitted_at[query_id] = record.time_ms
            defers[query_id] = record.attempt
        elif record.outcome == "defer":
            defers[query_id] = max(defers.get(query_id, 0), record.attempt + 1)
    return first_seen, admitted_at, defers


def build_run_ledger(
    services: Iterable,
    admission_records: Sequence = (),
    steal_records: Sequence = (),
    arrivals_ms: Optional[Mapping[int, float]] = None,
) -> dict:
    """Assemble one run's per-query cost ledger as a JSON-ready dict.

    *services* are parallel ``BatchRecord``s or serial ``BatchResult``s
    (both name the bucket, the I/O and match split and the per-query
    objects alike), each naming a query at most once.  They may arrive in
    any order and from any mixture of per-worker fragments — the builder
    canonicalises internally, so merging is order-insensitive
    (concatenation commutes).  *arrivals_ms* supplies the original client
    arrival per query id; when absent, a query's arrival falls back to its
    first gate instant (serving runs) and then to its first service start.

    Only queries that received at least one bucket service appear:
    rejected and no-overlap arrivals have no cost to decompose.
    """
    # One plain row per service.  The row carries no worker id — service
    # timelines are pure functions of a bucket's admitted arrivals, so
    # dropping the topology is what makes a one-worker parallel ledger
    # bit-identical to the serial engine's — and it covers *every* field,
    # so equal rows are indistinguishable and the sort is a total order
    # independent of arrival order.
    rows = sorted(
        (
            record.started_at_ms,
            record.finished_at_ms,
            record.bucket_index,
            tuple(record.queries_served),
            tuple(record.objects_served),
            record.io_ms,
            record.match_ms,
        )
        for record in services
    )
    first_seen, admitted_at, defers = _admission_story(admission_records)
    arrivals = dict(arrivals_ms or {})
    steals_by_bucket: Dict[int, List[float]] = {}
    for record in steal_records:
        steals_by_bucket.setdefault(record.bucket_index, []).append(record.time_ms)

    # Per query, its services in row order, each with the query's position
    # in the row's ``queries_served`` (which indexes ``objects_served``).
    chains: Dict[int, List[Tuple[tuple, int]]] = {}
    for row in rows:
        for position, query_id in enumerate(row[3]):
            chains.setdefault(query_id, []).append((row, position))

    entries: List[dict] = []
    for query_id in sorted(chains):
        chain = chains[query_id]
        first_service_ms = chain[0][0][0]
        submit_ms = admitted_at.get(query_id)
        arrival_ms = arrivals.get(query_id)
        if arrival_ms is None:
            arrival_ms = first_seen.get(query_id)
        if arrival_ms is None:
            arrival_ms = first_service_ms if submit_ms is None else submit_ms
        if submit_ms is None:
            # No gate in front of the engines: hand-off is the arrival.
            submit_ms = arrival_ms
        completion_ms = chain[0][0][1]
        service_ms = 0.0
        attributed_service_ms = 0.0
        io_ms = 0.0
        attributed_io_ms = 0.0
        match_ms = 0.0
        io_services = 0
        steal_migrations = 0
        steal_wait_ms = 0.0
        buckets: List[dict] = []
        for row, position in chain:
            started, finished, bucket, queries, objects, service_io_ms, service_match_ms = row
            shared_by = len(queries) or 1
            cost = finished - started
            if finished > completion_ms:
                completion_ms = finished
            service_ms += cost
            attributed_service_ms += cost / shared_by
            io_ms += service_io_ms
            attributed_io_ms += service_io_ms / shared_by
            match_ms += service_match_ms
            if service_io_ms > 0.0:
                io_services += 1
            for steal_ms in steals_by_bucket.get(bucket, ()):
                # A migration between this query's arrival and the bucket's
                # eventual service delayed that service by the remaining
                # wait; with stealing off this term is identically zero.
                if arrival_ms <= steal_ms <= started:
                    steal_migrations += 1
                    steal_wait_ms += started - steal_ms
            buckets.append(
                {
                    "bucket": bucket,
                    "shared_by": shared_by,
                    "service_ms": cost,
                    "io_ms": service_io_ms,
                    "objects": objects[position] if position < len(objects) else 0,
                }
            )
        cache_hits = len(chain) - io_services
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
        "services": len(rows),
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


def ledger_entries(ledger: dict) -> Dict[int, dict]:
    """The ledger's per-query entries, indexed by query id."""
    return {int(entry["query_id"]): entry for entry in ledger.get("queries", ())}


def _field_delta(field: str, a: object, b: object) -> Optional[str]:
    if a == b:
        return None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return f"{field} {a:g} -> {b:g} ({b - a:+g})"
    return f"{field} {a!r} -> {b!r}"


def diff_ledgers(a: dict, b: dict) -> List[Tuple[str, str, str]]:
    """Per-query deltas between two ledgers.

    Returns ``(query key, status, delta)`` rows — the same shape as
    :func:`repro.telemetry.report.diff_snapshots` — where *status* is
    ``only-a``, ``only-b`` or ``changed``.  Identical ledgers diff to
    the empty list (the ``liferaft compare`` zero-drift contract).
    """
    entries_a = ledger_entries(a)
    entries_b = ledger_entries(b)
    rows: List[Tuple[str, str, str]] = []
    for query_id in sorted(set(entries_a) | set(entries_b)):
        key = f"query {query_id}"
        entry_a = entries_a.get(query_id)
        entry_b = entries_b.get(query_id)
        if entry_a is None:
            rows.append((key, "only-b", f"makespan {entry_b['makespan_ms']:g} ms"))
            continue
        if entry_b is None:
            rows.append((key, "only-a", f"makespan {entry_a['makespan_ms']:g} ms"))
            continue
        deltas = [
            delta
            for field in _ENTRY_FIELDS
            if (delta := _field_delta(field, entry_a.get(field), entry_b.get(field)))
            is not None
        ]
        if entry_a.get("buckets") != entry_b.get("buckets"):
            deltas.append("bucket attribution changed")
        if deltas:
            rows.append((key, "changed", "; ".join(deltas)))
    return rows
