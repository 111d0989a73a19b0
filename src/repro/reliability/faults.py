"""Deterministic crash injection.

A fault plan is a *fixed set* of crash points — "kill
shard ``w`` at window ``n``" — so a crash-injected run is exactly
reproducible: the same plan against the same trace produces the same
kills, the same recoveries and (the invariant the reliability tests pin)
the same virtual-clock outcome as an uninterrupted run.

On the process backend a due crash point really kills the worker's OS
process (``SIGKILL``, no goodbye message); on the virtual backend the
in-process shard is discarded, simulating the same total state loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple, Union


@dataclass(frozen=True, order=True)
class CrashPoint:
    """One scheduled kill: shard *worker_id* dies during window *window_index*."""

    worker_id: int
    window_index: int

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("crash points target worker ids >= 0")
        if self.window_index < 0:
            raise ValueError("crash points target window indices >= 0")

    @property
    def spec(self) -> str:
        """The ``W@N`` form the CLI accepts."""
        return f"{self.worker_id}@{self.window_index}"


class FaultPlan:
    """An immutable set of crash points consulted at every window barrier."""

    def __init__(self, crashes: Iterable[CrashPoint] = ()) -> None:
        self._crashes: FrozenSet[CrashPoint] = frozenset(crashes)

    @property
    def crashes(self) -> Tuple[CrashPoint, ...]:
        """Every scheduled crash, ordered by (window, worker)."""
        return tuple(
            sorted(self._crashes, key=lambda c: (c.window_index, c.worker_id))
        )

    def crash_due(self, worker_id: int, window_index: int) -> bool:
        """``True`` when the plan kills *worker_id* during *window_index*."""
        return CrashPoint(worker_id, window_index) in self._crashes

    def __len__(self) -> int:
        return len(self._crashes)

    def __bool__(self) -> bool:
        return bool(self._crashes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._crashes == other._crashes

    def __hash__(self) -> int:
        return hash(self._crashes)

    def __repr__(self) -> str:
        return f"FaultPlan({', '.join(c.spec for c in self.crashes) or 'none'})"

    # -- constructors ----------------------------------------------------- #

    @classmethod
    def parse(cls, specs: Union[str, Iterable[str]]) -> "FaultPlan":
        """Build a plan from ``W@N`` specs (one string may hold a comma list)."""
        if isinstance(specs, str):
            specs = [specs]
        points: List[CrashPoint] = []
        for chunk in specs:
            for spec in chunk.split(","):
                spec = spec.strip()
                if not spec:
                    continue
                worker_text, sep, window_text = spec.partition("@")
                if not sep:
                    raise ValueError(
                        f"crash spec {spec!r} must look like WORKER@WINDOW (e.g. '1@3')"
                    )
                try:
                    points.append(CrashPoint(int(worker_text), int(window_text)))
                except ValueError as error:
                    raise ValueError(f"invalid crash spec {spec!r}: {error}") from error
        return cls(points)


__all__ = ["CrashPoint", "FaultPlan"]
