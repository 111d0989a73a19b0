"""Deterministic barrier plans: kills, planned departures and joins.

Every change to a run's membership is a fixed event at a window barrier,
so one plan holds all three kinds, written in one grammar:

* ``W@N`` — kill shard ``W`` during window ``N`` (on the process
  backend a real ``SIGKILL``, no goodbye message; on the virtual backend
  the in-process shard is discarded, simulating the same total state
  loss), then recover it from its latest checkpoint;
* ``W@N:leave`` — shard ``W`` departs at barrier ``N``: it evacuates
  every queue through the stealing seam (``ReleaseAllBuckets`` →
  ``AdoptBucket``), its accounting is finalised and its process shuts
  down cleanly;
* ``@N:join`` — one cold shard with an empty arrival schedule spawns at
  barrier ``N`` and acquires work through the ordinary steal rounds.

A plan is pure data consulted at every barrier, so a run under it is
exactly reproducible.  The contracts the reliability tests pin: a
crash-injected run has the same virtual-clock outcome as an uninterrupted
one, and an elastic run completes exactly the static run's query set
(per-query finish times legitimately shift as the pool changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

#: Event kinds in the order the coordinator applies them at one barrier:
#: kills land while the window is in flight, then joins run before
#: departures, so a newcomer can adopt a leaver's queues and a barrier
#: with both never empties the pool.
KINDS = ("kill", "join", "leave")


def split_specs(specs: Union[str, Iterable[str]]) -> Iterator[str]:
    """The entries of CLI specs: a repeatable flag whose values may be comma lists."""
    for chunk in [specs] if isinstance(specs, str) else specs:
        for spec in chunk.split(","):
            if spec.strip():
                yield spec.strip()


@dataclass(frozen=True)
class FaultEvent:
    """One membership change at barrier *window_index*; a join has no *worker_id*."""

    kind: str
    window_index: int
    worker_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"event kinds are {', '.join(KINDS)}, not {self.kind!r}")
        if self.window_index < 0:
            raise ValueError("events target window indices >= 0")
        if (self.kind == "join") != (self.worker_id is None):
            raise ValueError("a kill or a leave names a worker; a join names none")
        if self.worker_id is not None and self.worker_id < 0:
            raise ValueError("events target worker ids >= 0")

    @property
    def spec(self) -> str:
        """The form :meth:`FaultPlan.parse` accepts."""
        worker = "" if self.worker_id is None else self.worker_id
        verb = "" if self.kind == "kill" else f":{self.kind}"
        return f"{worker}@{self.window_index}{verb}"

    @classmethod
    def parse(cls, spec: str) -> "FaultEvent":
        """One ``W@N``, ``W@N:leave`` or ``@N:join`` entry."""
        target, _, verb = spec.partition(":")
        worker_text, sep, window_text = target.partition("@")
        if not sep:
            raise ValueError(
                f"event spec {spec!r} must look like WORKER@WINDOW[:leave] "
                "or @WINDOW:join (e.g. '1@3')"
            )
        try:
            worker_id = int(worker_text) if worker_text else None
            return cls(verb or "kill", int(window_text), worker_id)
        except ValueError as error:
            raise ValueError(f"invalid event spec {spec!r}: {error}") from error


def _barrier_order(event: FaultEvent) -> Tuple[int, int, int]:
    return (event.window_index, KINDS.index(event.kind), event.worker_id or 0)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable plan of barrier events, in the order they are applied.

    A kill or a departure names one worker at one window, so duplicates
    collapse; every join spawns a worker, so repeated joins count.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        joins = [event for event in events if event.kind == "join"]
        targeted = {event for event in events if event.kind != "join"}
        ordered = sorted(joins + list(targeted), key=_barrier_order)
        object.__setattr__(self, "events", tuple(ordered))

    def count(self, kind: str) -> int:
        """How many events of *kind* the plan holds."""
        return sum(1 for event in self.events if event.kind == kind)

    def validate(self, workers: int, enable_stealing: bool) -> None:
        """Check the plan is executable by a run of *workers* shards.

        Replays the active set event by event in barrier order: a kill
        or a departure must target a worker active at that window (joins
        take sequential ids ``workers, workers + 1, …`` and join only
        after the window's kills), the pool must never empty, and a join
        needs stealing.
        """
        if workers < 1:
            raise ValueError("workers must be positive")
        if self.count("join") and not enable_stealing:
            raise ValueError(
                "join events need work stealing enabled: a joining worker has "
                "an empty arrival schedule and acquires work only through steal rounds"
            )
        active = set(range(workers))
        next_id = workers
        for event in self.events:
            if event.kind == "join":
                active.add(next_id)
                next_id += 1
                continue
            if event.worker_id not in active:
                raise ValueError(
                    f"{'crash' if event.kind == 'kill' else 'departure'} {event.spec} targets "
                    f"worker {event.worker_id}, which is not active at window "
                    f"{event.window_index} (worker ids are 0-based; a joiner takes the next "
                    "id once its window's kills have landed)"
                )
            if event.kind == "leave":
                active.remove(event.worker_id)
                if not active:
                    raise ValueError(
                        f"the plan empties the worker pool at window {event.window_index}"
                    )

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({','.join(event.spec for event in self.events) or 'none'})"

    @classmethod
    def parse(cls, specs: Union[str, Iterable[str]]) -> "FaultPlan":
        """Build a plan from event specs (one string may hold a comma list)."""
        return cls(tuple(map(FaultEvent.parse, split_specs(specs))))


__all__ = ["FaultEvent", "FaultPlan", "split_specs"]
