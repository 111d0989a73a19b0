"""Reference implementation of a workload queue: rescan on every partial drain.

This is ``WorkloadQueue`` as it was before partial drains cost only the
entries they remove: ``remove_queries`` walks the queue to split it, then
walks what is left twice more to recompute the object total and the oldest
enqueue time.  Nothing in ``src/`` calls it; the scheduling-index state
machine keeps one of these beside every live queue and requires the same
entries, order, total and oldest request after every step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.workload_manager import WorkloadEntry, WorkloadManager, WorkloadQueue


class RescanningQueue:
    """All pending work for a single bucket, aggregates recomputed by scan."""

    def __init__(self, bucket_index: int, entries: Optional[List[WorkloadEntry]] = None) -> None:
        self.bucket_index = bucket_index
        self.entries: List[WorkloadEntry] = list(entries) if entries else []
        self._total_objects = sum(e.object_count for e in self.entries)
        self._oldest_ms = (
            min(e.enqueue_time_ms for e in self.entries) if self.entries else float("inf")
        )

    def append(self, entry: WorkloadEntry) -> None:
        """Add one entry, updating the cached aggregates."""
        self.entries.append(entry)
        self._total_objects += entry.object_count
        if entry.enqueue_time_ms < self._oldest_ms:
            self._oldest_ms = entry.enqueue_time_ms

    def remove_queries(self, query_ids: Set[int]) -> List[WorkloadEntry]:
        """Remove and return the entries belonging to *query_ids*."""
        removed = [e for e in self.entries if e.query_id in query_ids]
        if not removed:
            return []
        self.entries = [e for e in self.entries if e.query_id not in query_ids]
        self._total_objects = sum(e.object_count for e in self.entries)
        self._oldest_ms = (
            min(e.enqueue_time_ms for e in self.entries) if self.entries else float("inf")
        )
        return removed

    def drain_all(self) -> List[WorkloadEntry]:
        """Remove and return every entry."""
        drained = self.entries
        self.entries = []
        self._total_objects = 0
        self._oldest_ms = float("inf")
        return drained


def oracle_twin(manager: WorkloadManager, queues: Dict[int, RescanningQueue]) -> WorkloadManager:
    """*manager* with its queues replaced by plain ones holding the oracle's state.

    The twin never performed a partial drain, so its pickle is what a
    checkpoint of *manager* must be byte for byte.
    """
    state = manager.__getstate__()
    plain: Dict[int, WorkloadQueue] = {}
    for bucket_index, oracle in queues.items():
        queue = WorkloadQueue(bucket_index, oracle.entries)
        queue._total_objects = oracle._total_objects
        queue._oldest_ms = oracle._oldest_ms
        plain[bucket_index] = queue
    state["_queues"] = plain
    twin = WorkloadManager.__new__(WorkloadManager)
    twin.__setstate__(state)
    return twin
