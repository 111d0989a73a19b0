"""The time-ordered event queue of discrete-event simulation.

The simulator's service loop is sequential (one bucket batch at a time),
so what needs a queue is the serving front-end's intake: client arrivals
and deferred retries, which :class:`EventQueue` keeps in time order.  A
sharded run's timeline is its service and steal records (see
:class:`~repro.parallel.backend.BackendOutcome`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, List, Tuple


class EventKind(enum.Enum):
    """Categories of simulated events."""

    QUERY_ARRIVAL = "query_arrival"
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
