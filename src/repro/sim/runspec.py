"""RunSpec: the one declarative description of a simulated run.

The run entry points grew more than ten ad-hoc keyword parameters
across PRs 1–5 (policy, alpha, workers, shard strategy, execution
backend, serving config, reliability config, store overrides, …).
:class:`RunSpec` collapses that sprawl into a single frozen dataclass
consumed by :meth:`repro.sim.simulator.Simulator.execute` — the one
public entry point.

Dispatch rule: a spec runs on the sharded parallel engine when it names
an execution ``backend``, asks for more than one worker, or configures
``reliability`` (checkpoint/recovery is a parallel-engine feature);
otherwise the serial discrete-event engine runs it.  ``workers=1`` on
the parallel engine reproduces the serial engine's numbers exactly —
the backend-parity tests pin that down — so the dispatch seam is not
observable in virtual-clock results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.core.baselines import make_policy
from repro.core.scheduler import SchedulingPolicy
from repro.parallel.backend import BACKENDS

if TYPE_CHECKING:
    from repro.reliability.config import ReliabilityConfig
    from repro.service.frontend import ServiceConfig

#: Sentinel for "use the simulator's default store" on per-run overrides
#: (``store_path=None`` explicitly forces an in-memory run).
DEFAULT_STORE = object()


@dataclass(frozen=True)
class RunSpec:
    """Everything that varies between two runs on one :class:`Simulator`.

    Site-level knobs (bucket count, cache sizes, cost constants) stay on
    :class:`~repro.sim.simulator.SimulationConfig`; a ``RunSpec`` only
    describes *one run*: what to schedule, where to execute it, and
    which storage tier to read.
    """

    #: Scheduling policy: a registry name (``"liferaft"``, ``"noshare"``,
    #: ``"round_robin"``, …) or a constructed policy object.
    policy: Union[str, SchedulingPolicy] = "liferaft"
    #: LifeRaft age bias (only consulted when *policy* is a name).
    alpha: float = 0.25
    #: Shard count; ``> 1`` runs the sharded parallel engine.
    workers: int = 1
    #: How queries map to shards (parallel runs).
    shard_strategy: str = "round_robin"
    #: Execution backend, one of :data:`~repro.parallel.backend.BACKENDS`:
    #: ``"virtual"`` (every shard in this process) or ``"process"`` (one
    #: OS process per shard).  ``None`` selects the serial engine unless
    #: ``workers`` or ``reliability`` force the parallel one (then
    #: ``"virtual"`` is used).
    backend: Optional[str] = None
    #: Allow idle shards to steal work (parallel runs).
    enable_stealing: bool = True
    #: Override the virtual-time window between steal barriers
    #: (parallel runs, either backend).
    steal_quantum_ms: Optional[float] = None
    #: Serving front-end configuration; ``None`` bypasses admission
    #: control and result streaming.
    service: Optional["ServiceConfig"] = None
    #: Checkpoint/crash-injection/recovery configuration (parallel runs).
    reliability: Optional["ReliabilityConfig"] = None
    #: Storage tier override: :data:`DEFAULT_STORE` uses the simulator's
    #: default, ``None`` forces in-memory, a path replays against that
    #: on-disk columnar store.
    store_path: object = DEFAULT_STORE
    #: Label stamped on the result (defaults to the policy name).
    label: str = ""
    #: Arrival rate the trace was flooded at (recorded, not enforced).
    saturation_qps: Optional[float] = None
    #: Record the run's arrival stream (and result digest) into this
    #: ``.lrtr`` trace file for later ``liferaft replay``.
    record_trace: Optional[str] = None
    #: Collect the run's metrics snapshot onto the result.  Instrumentation
    #: itself always records (it never perturbs the virtual clock — the
    #: zero-perturbation tests pin that); this only gates snapshot
    #: collection and export.
    telemetry: bool = True
    #: Write the merged metrics snapshot to this JSON file after the run.
    metrics_out: Optional[str] = None
    #: Write the run's span timeline to this Chrome-trace JSON file
    #: (loadable in Perfetto / ``chrome://tracing``).
    trace_out: Optional[str] = None
    #: Barrier spacing of the windowed telemetry series (virtual ms).
    #: ``None`` uses the engine default (64 bucket reads).  Purely an
    #: observation cadence: it never feeds back into scheduling.
    series_window_ms: Optional[float] = None
    #: Write a ``.lrrun`` run archive (spec description + metrics +
    #: per-query cost ledger + result digest) to this path after the run,
    #: for later ``liferaft compare``.  Like the other exports it runs
    #: after the digest is stamped, so it never perturbs the outcome.
    archive_out: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            make_policy(self.policy, self.alpha)  # fail fast on a bad name or alpha
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.series_window_ms is not None and self.series_window_ms <= 0:
            raise ValueError("series_window_ms must be positive")

    @property
    def is_parallel(self) -> bool:
        """Whether this spec runs on the sharded parallel engine."""
        return (
            self.backend is not None
            or self.workers > 1
            or self.reliability is not None
        )

    @property
    def effective_backend(self) -> str:
        """The execution backend a parallel run will use."""
        return self.backend if self.backend is not None else "virtual"

    def with_store(self, store_path) -> "RunSpec":
        """A copy of this spec replaying against *store_path*.

        Parity checks sweep one spec across storage tiers; this keeps
        the sweep literal at call sites (``spec.with_store(None)`` vs
        ``spec.with_store(path)``).
        """
        resolved = (
            store_path
            if store_path is None or store_path is DEFAULT_STORE
            else os.fspath(store_path)
        )
        return replace(self, store_path=resolved)


__all__ = ["DEFAULT_STORE", "RunSpec"]
