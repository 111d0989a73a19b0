"""Planned elasticity: scale-down/scale-up events at window barriers.

PR 5's recovery machinery already knows how to tear a shard's state out
of a run and rebuild it elsewhere; this module generalises "crash" to
*planned* membership changes.  A :class:`ScalePlan` is a fixed set of

* :class:`ScaleDown` events — "shard ``w`` leaves at window ``n``": the
  departing worker evacuates every queue through the stealing seam
  (``ReleaseAllBuckets`` → ``AdoptBucket``), its accounting is finalised,
  and its process shuts down cleanly;
* :class:`ScaleUp` events — "one worker joins at window ``n``": a cold
  shard with an empty arrival schedule spawns mid-run and acquires work
  through the ordinary steal rounds.

Like crash plans, scale plans are pure data consulted at every barrier,
so an elastic run is exactly reproducible.  The contract the elasticity
tests pin: an elastic run's *completion set* (which queries finished, and
every workload-conservation total) equals the static run's — per-query
finish times legitimately shift as the worker pool changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple, Union

from repro.reliability.faults import parse_worker_window, split_specs

__all__ = ["ScaleDown", "ScalePlan", "ScaleRecord", "ScaleUp"]


@dataclass(frozen=True, order=True)
class ScaleDown:
    """One planned departure: shard *worker_id* leaves at window *window_index*."""

    worker_id: int
    window_index: int

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("scale-down events target worker ids >= 0")
        if self.window_index < 0:
            raise ValueError("scale-down events target window indices >= 0")

    @property
    def spec(self) -> str:
        """The ``W@N`` form the CLI accepts."""
        return f"{self.worker_id}@{self.window_index}"


@dataclass(frozen=True, order=True)
class ScaleUp:
    """One planned join: a new shard spawns at window *window_index*."""

    window_index: int

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise ValueError("scale-up events target window indices >= 0")

    @property
    def spec(self) -> str:
        """The window-index form the CLI accepts."""
        return str(self.window_index)


class ScalePlan:
    """An immutable set of scale events consulted at every window barrier.

    At one barrier, joins are applied before departures — a worker
    arriving and another leaving at the same window always leaves the
    pool non-empty, and the newcomer is immediately eligible to adopt
    the leaver's queues.
    """

    def __init__(
        self, downs: Iterable[ScaleDown] = (), ups: Iterable[ScaleUp] = ()
    ) -> None:
        self._downs: FrozenSet[ScaleDown] = frozenset(downs)
        self._ups: Tuple[ScaleUp, ...] = tuple(sorted(ups))

    @property
    def downs(self) -> Tuple[ScaleDown, ...]:
        """Every departure, ordered by (window, worker)."""
        return tuple(sorted(self._downs, key=lambda d: (d.window_index, d.worker_id)))

    @property
    def ups(self) -> Tuple[ScaleUp, ...]:
        """Every join, ordered by window."""
        return self._ups

    def downs_due(self, window_index: int) -> List[int]:
        """Worker ids departing at *window_index*, ascending."""
        return sorted(
            event.worker_id
            for event in self._downs
            if event.window_index == window_index
        )

    def ups_due(self, window_index: int) -> int:
        """How many workers join at *window_index*."""
        return sum(1 for event in self._ups if event.window_index == window_index)

    def total_ups(self) -> int:
        """Total joins over the whole plan."""
        return len(self._ups)

    def validate(self, initial_workers: int) -> None:
        """Check the plan is executable from a pool of *initial_workers*.

        Simulates the active set window by window (joins first, then
        departures, exactly as the coordinator applies them): every
        departure must target a live worker, and the pool must never
        empty.  Joins take sequential ids ``initial_workers,
        initial_workers + 1, …`` in window order.
        """
        if initial_workers < 1:
            raise ValueError("initial_workers must be positive")
        if not self._downs and not self._ups:
            return
        active = set(range(initial_workers))
        next_id = initial_workers
        windows = sorted(
            {event.window_index for event in self._downs}
            | {event.window_index for event in self._ups}
        )
        for window in windows:
            for _ in range(self.ups_due(window)):
                active.add(next_id)
                next_id += 1
            for worker_id in self.downs_due(window):
                if worker_id not in active:
                    raise ValueError(
                        f"scale-down {worker_id}@{window} targets a worker that "
                        "is not active at that window (already departed, or "
                        "never existed)"
                    )
                active.remove(worker_id)
            if not active:
                raise ValueError(
                    f"scale plan empties the worker pool at window {window}"
                )

    def __len__(self) -> int:
        return len(self._downs) + len(self._ups)

    def __bool__(self) -> bool:
        return bool(self._downs or self._ups)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalePlan):
            return NotImplemented
        return self._downs == other._downs and self._ups == other._ups

    def __hash__(self) -> int:
        return hash((self._downs, self._ups))

    def __repr__(self) -> str:
        downs = ",".join(d.spec for d in self.downs) or "none"
        ups = ",".join(u.spec for u in self.ups) or "none"
        return f"ScalePlan(downs={downs}, ups={ups})"

    # -- constructors ----------------------------------------------------- #

    @classmethod
    def parse(
        cls,
        down_specs: Union[str, Iterable[str]] = (),
        up_specs: Union[str, Iterable[str]] = (),
    ) -> "ScalePlan":
        """Build a plan from CLI specs.

        *down_specs* are ``WORKER@WINDOW`` entries (one string may hold a
        comma list); *up_specs* are bare window indices.
        """
        downs = [
            parse_worker_window(spec, "scale-down", ScaleDown)
            for spec in split_specs(down_specs)
        ]
        ups: List[ScaleUp] = []
        for spec in split_specs(up_specs):
            try:
                ups.append(ScaleUp(int(spec)))
            except ValueError as error:
                raise ValueError(
                    f"invalid scale-up spec {spec!r}: {error}"
                ) from error
        return cls(downs, ups)


@dataclass
class ScaleRecord:
    """One executed scale event, for reports and the elasticity experiment."""

    #: ``"down"`` or ``"up"``.
    kind: str
    worker_id: int
    window_index: int
    #: Departures only: queues migrated off the leaving shard.
    buckets_migrated: int = 0
    #: Departures only: queued entries carried by those queues.
    entries_migrated: int = 0
