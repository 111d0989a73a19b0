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
* :class:`StealRecord` — one whole-queue migration between shards.

The run's report is built by the serial engine's rule
(:func:`~repro.core.engine.build_engine_report`) from the worker-order
merge of the shards' lane snapshots; per-shard facts (clocks, store
reads, lane snapshots) are not copied anywhere: the run's
:class:`~repro.parallel.backend.BackendOutcome` carries the shards' own
:class:`~repro.parallel.ipc.WorkerResult` messages.

With ``workers=1`` a sharded run degenerates to the serial
:class:`~repro.core.engine.LifeRaftEngine` — same scheduling decisions,
same costs, same report — which the parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set


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
    services.
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
