"""Event queues and multi-worker event streams for discrete-event simulation.

The main simulator's service loop is sequential (one bucket batch at a
time), so it mostly needs ordered query arrivals, which
:class:`EventQueue` keeps in time order.

The parallel engine additionally emits one event *stream* per worker —
arrivals fanned out to a shard, service completions, steals — which
:class:`WorkerEventLog` records and can merge back into one time-ordered
timeline for tests and trace inspection.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple


class EventKind(enum.Enum):
    """Categories of simulated events."""

    QUERY_ARRIVAL = "query_arrival"
    SERVICE_COMPLETE = "service_complete"
    TRANSFER_COMPLETE = "transfer_complete"
    WORK_STOLEN = "work_stolen"
    CONTROL = "control"


@dataclass(frozen=True)
class Event:
    """One scheduled event."""

    time_ms: float
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError("events cannot be scheduled before time zero")


class EventQueue:
    """A priority queue of events ordered by time (FIFO within a timestamp)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Schedule *event*."""
        heapq.heappush(self._heap, (event.time_ms, next(self._counter), event))

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]


class WorkerEventLog:
    """Per-worker event streams with a merged, time-ordered view.

    The parallel engine appends events as they happen on each worker's
    virtual timeline (arrivals fanned to the shard, service completions,
    steals).  Within one worker the stream is append-ordered; across
    workers :meth:`merged` re-interleaves by timestamp (stable by record
    order within a timestamp), giving tests one global timeline to assert
    over.
    """

    def __init__(self) -> None:
        self._streams: Dict[int, List[Event]] = {}
        self._order = itertools.count()
        self._sequenced: List[Tuple[float, int, int, Event]] = []

    def record(self, worker_id: int, event: Event) -> None:
        """Append *event* to the stream of *worker_id*."""
        self._streams.setdefault(worker_id, []).append(event)
        self._sequenced.append((event.time_ms, next(self._order), worker_id, event))

    def worker_ids(self) -> List[int]:
        """Workers that have recorded at least one event."""
        return sorted(self._streams)

    def stream(self, worker_id: int) -> List[Event]:
        """The events of one worker, in record order."""
        return list(self._streams.get(worker_id, []))

    def merged(self) -> List[Tuple[int, Event]]:
        """All events as ``(worker_id, event)``, ordered by time."""
        return [
            (worker_id, event)
            for _time, _seq, worker_id, event in sorted(self._sequenced)
        ]

    def __len__(self) -> int:
        return len(self._sequenced)
