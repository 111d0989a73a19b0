"""Cross-shard bookkeeping of a sharded run: what the shards add up to.

A sharded run is N shard workers (:mod:`repro.parallel.worker`), each a
pure function of its own arrival schedule, driven by one loop — the
channel coordinator (:class:`repro.reliability.runtime.ShardCoordinator`).
This module holds what is left once the per-shard timelines exist and
neither backend may do differently:

* :class:`CompletionTracker` — query completion is tracked globally (a
  query finishes when its *last* bucket anywhere is drained), which is
  what makes per-shard workload managers composable: each manager only
  knows its shard's share of a query;
* :class:`StealRecord` — one whole-queue migration between shards;
* :func:`merge_worker_results` — the single aggregation rule from
  per-shard accounting to one :class:`~repro.core.engine.EngineReport`.
  Per-shard facts (clocks, busy time, reads) are not copied anywhere:
  the run's :class:`~repro.parallel.backend.BackendOutcome` carries the
  shards' own :class:`~repro.parallel.ipc.WorkerResult` messages.

With ``workers=1`` a sharded run degenerates to the serial
:class:`~repro.core.engine.LifeRaftEngine` — same scheduling decisions,
same costs, same report — which the parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Set

from repro.core.engine import EngineReport

if TYPE_CHECKING:
    from repro.parallel.ipc import WorkerResult


@dataclass(frozen=True)
class StealRecord:
    """One work-stealing migration, for reports and tests."""

    time_ms: float
    bucket_index: int
    victim_id: int
    thief_id: int
    entry_count: int


class CompletionTracker:
    """Cross-shard query bookkeeping: arrivals, remaining buckets, completions.

    A query completes when its *last* pending bucket anywhere is drained.
    The coordinator replays the service log through it in global finish
    order, so that bucket's service is also the query's last to finish:
    ``arrival + response`` equals the latest finish of the query's
    services.  It is also part of the run checkpoint.
    """

    def __init__(self) -> None:
        self._remaining: Dict[int, Set[int]] = {}
        self._arrival_ms: Dict[int, float] = {}
        self._completion_ms: Dict[int, float] = {}
        self._first_arrival_ms: Optional[float] = None

    def register(self, query_id: int, buckets: Iterable[int], arrival_ms: float) -> None:
        """Record a query's arrival and the buckets it must still visit."""
        if query_id in self._remaining:
            raise ValueError(f"query {query_id} appears twice in the trace")
        self._remaining[query_id] = set(buckets)
        self._arrival_ms[query_id] = arrival_ms
        if self._first_arrival_ms is None or arrival_ms < self._first_arrival_ms:
            self._first_arrival_ms = arrival_ms

    def on_serviced(self, query_id: int, bucket_index: int, finished_ms: float) -> None:
        """Mark one bucket of a query as drained; the last one completes it."""
        remaining = self._remaining.get(query_id)
        if remaining is None:
            return
        remaining.discard(bucket_index)
        if not remaining and query_id not in self._completion_ms:
            self._completion_ms[query_id] = finished_ms

    @property
    def submitted_count(self) -> int:
        """Queries registered so far."""
        return len(self._arrival_ms)

    @property
    def first_arrival_ms(self) -> Optional[float]:
        """Earliest registered arrival, or ``None`` before any intake."""
        return self._first_arrival_ms

    @property
    def last_completion_ms(self) -> float:
        """Latest completion timestamp (0 before any query finishes)."""
        return max(self._completion_ms.values(), default=0.0)

    def response_times_ms(self) -> Dict[int, float]:
        """Response times of every completed query, in completion order."""
        return {qid: done - self._arrival_ms[qid] for qid, done in self._completion_ms.items()}


def merge_worker_results(
    scheduler_name: str,
    completion: CompletionTracker,
    results: Sequence["WorkerResult"],
) -> EngineReport:
    """Merge per-worker accounting into one :class:`EngineReport`.

    The single aggregation rule of every sharded run: the coordinator
    merges the :class:`WorkerResult` messages its shards return, whichever
    channel carried them, so the merged report cannot drift between
    backends.  Busy time, service counts, strategy counts and I/O totals
    are sums over workers; the cache hit rate is recomputed from the
    pooled hit/miss counters; the makespan spans first arrival to the last
    query completion anywhere, exactly as in the serial report.
    """
    response_times = completion.response_times_ms()
    first_arrival = completion.first_arrival_ms or 0.0
    makespan = max(0.0, completion.last_completion_ms - first_arrival)
    hits = sum(r.cache_statistics.get("hits", 0.0) for r in results)
    misses = sum(r.cache_statistics.get("misses", 0.0) for r in results)
    accesses = hits + misses
    cache_stats = {
        "hits": hits,
        "misses": misses,
        "accesses": accesses,
        "hit_rate": (hits / accesses) if accesses else 0.0,
    }
    scan_services = sum(r.join_statistics.get("scan_services", 0.0) for r in results)
    index_services = sum(r.join_statistics.get("index_services", 0.0) for r in results)
    total_join_services = scan_services + index_services
    join_stats = {
        "scan_services": scan_services,
        "index_services": index_services,
        "index_service_fraction": (
            index_services / total_join_services if total_join_services else 0.0
        ),
        "threshold_fraction": (
            results[0].join_statistics.get("threshold_fraction", 0.0) if results else 0.0
        ),
    }
    strategy_counts: Dict[str, int] = {}
    for result in results:
        for key, value in result.strategy_counts.items():
            strategy_counts[key] = strategy_counts.get(key, 0) + value
    return EngineReport(
        scheduler_name=scheduler_name,
        submitted_queries=completion.submitted_count,
        completed_queries=len(response_times),
        busy_time_ms=sum(r.busy_ms for r in results),
        makespan_ms=makespan,
        response_times_ms=response_times,
        bucket_services=sum(r.services for r in results),
        cache_hit_rate=cache_stats["hit_rate"],
        cache_statistics=cache_stats,
        join_statistics=join_stats,
        strategy_counts=strategy_counts,
        total_io_ms=sum(r.total_io_ms for r in results),
        total_match_ms=sum(r.total_match_ms for r in results),
        total_matches=sum(r.total_matches for r in results),
    )
