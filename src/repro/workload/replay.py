"""Helpers to replay a trace — recorded or in-memory — through the simulator.

The paper replays "for each cross-match query, only the work that is
performed at SDSS" (§5.1): queries are pre-processed offline and their
per-site object lists submitted according to the trace's arrival times.
:func:`replay_recorded` is the canonical replay loop: it re-runs a
``.lrtr`` trace through :meth:`~repro.sim.simulator.Simulator.execute`
under the recorded run description (or caller overrides) and reports
whether the result digest reproduced bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workload.trace_io import RecordedTrace, read_trace


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying one recorded trace.

    ``digest_checked`` is ``False`` when the replay ran under a different
    execution shape than the recording (worker count or stealing
    changed), where only completion-set equality — not a bit-identical
    timeline — is guaranteed.
    """

    trace: RecordedTrace
    result: object  # SimulationResult (typed loosely: workload must not import sim)
    expected_digest: str
    digest_checked: bool

    @property
    def digest_matches(self) -> bool:
        """Whether the replay reproduced the recorded digest bit-for-bit."""
        return bool(
            self.expected_digest
            and getattr(self.result, "result_digest", "") == self.expected_digest
        )


def replay_recorded(
    path: str,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store_path: Optional[str] = None,
    enable_stealing: Optional[bool] = None,
) -> ReplayOutcome:
    """Re-run a ``.lrtr`` trace through ``Simulator.execute``.

    The run description (policy, alpha, worker count, stealing) comes
    from the trace's metadata; *workers*, *backend* and
    *enable_stealing* override it.  The site is rebuilt from the
    recorded bucket count, or from *store_path* when the replay should
    read a real on-disk store.

    Digest verification is meaningful only when the execution shape
    matches the recording: each shard is a pure function of its admitted
    arrival schedule and one loop drives both backends, so the timeline
    is bit-identical across backends at the same worker count, stealing
    on or off (the scenario-parity suite pins this), but
    a different worker count or stealing toggle legitimately changes
    per-query finish times.  In that case ``digest_checked`` is False.
    """
    # Imported lazily: ``sim`` imports ``workload.trace_io`` at module
    # level, so a module-level import here would be circular.
    from repro.sim.runspec import RunSpec
    from repro.sim.simulator import SimulationConfig, Simulator

    trace = read_trace(path)
    meta = trace.meta
    recorded_workers = int(meta.get("workers", 1))
    recorded_stealing = bool(meta.get("enable_stealing", True))
    run_workers = recorded_workers if workers is None else workers
    run_stealing = recorded_stealing if enable_stealing is None else enable_stealing
    if store_path is not None:
        simulator = Simulator.from_store(store_path)
    else:
        simulator = Simulator(SimulationConfig(bucket_count=int(meta.get("bucket_count", 2048))))
    spec = RunSpec(
        policy=str(meta.get("policy", "liferaft")).partition("(")[0] or "liferaft",
        alpha=float(meta.get("alpha") or 0.25),
        workers=run_workers,
        backend=backend,
        enable_stealing=run_stealing,
        saturation_qps=meta.get("saturation_qps"),
        label=str(meta.get("label", "")),
    )
    result = simulator.execute(trace.queries, spec)
    digest_checked = (
        bool(trace.expected_digest)
        and run_workers == recorded_workers
        and (run_workers == 1 or run_stealing == recorded_stealing)
    )
    return ReplayOutcome(
        trace=trace,
        result=result,
        expected_digest=trace.expected_digest,
        digest_checked=digest_checked,
    )
