"""Helpers to replay a trace — recorded or in-memory — through the simulator.

The paper replays "for each cross-match query, only the work that is
performed at SDSS" (§5.1): queries are pre-processed offline and their
per-site object lists submitted according to the trace's arrival times.
:func:`load_replay` reads a ``.lrtr`` trace and rebuilds the recorded run
description (or applies caller overrides) without running anything; its
:meth:`Replay.execute` re-runs the trace through
:meth:`~repro.sim.simulator.Simulator.execute` and reports whether the
result digest reproduced bit-for-bit.  Keeping the two steps apart lets a
caller treat a bad input differently from a failure inside the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workload.trace_io import RecordedTrace, read_trace


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying one recorded trace.

    ``digest_checked`` is ``False`` when the replay ran on a different
    worker count than the recording, where only completion-set equality —
    not a bit-identical timeline — is guaranteed.
    """

    trace: RecordedTrace
    result: object  # SimulationResult (typed loosely: workload must not import sim)
    digest_checked: bool

    @property
    def digest_matches(self) -> bool:
        """Whether the replay reproduced the recorded digest bit-for-bit."""
        expected = self.trace.expected_digest
        return bool(expected and getattr(self.result, "result_digest", "") == expected)


@dataclass(frozen=True)
class Replay:
    """A recorded trace with the simulator and run spec that re-run it."""

    trace: RecordedTrace
    simulator: object  # Simulator
    spec: object  # RunSpec
    #: Whether the replay's digest is comparable to the recorded one.
    digest_checked: bool

    def execute(self) -> ReplayOutcome:
        """Run the replay."""
        result = self.simulator.execute(self.trace.queries, self.spec)
        return ReplayOutcome(self.trace, result, self.digest_checked)


def load_replay(
    path: str,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store_path: Optional[str] = None,
) -> Replay:
    """Read a ``.lrtr`` trace and build what ``Simulator.execute`` needs.

    The run description (policy, alpha, worker count, stealing) comes
    from the trace's metadata; *workers* and *backend* override it.  The
    site is rebuilt from the recorded bucket count, or from *store_path*
    when the replay should read a real on-disk store.  Every footprint
    must fit the site: a trace recorded against more buckets than the
    store holds is rejected here, naming the buckets outside the layout.

    Digest verification is meaningful only when the worker count matches
    the recording: each shard is a pure function of its admitted arrival
    schedule and one loop drives both backends, so the timeline is
    bit-identical across backends at the same worker count, stealing on
    or off (the scenario-parity suite pins this), but a different worker
    count legitimately changes per-query finish times.  In that case
    ``digest_checked`` is False.
    """
    # Imported lazily: ``sim`` imports ``workload.trace_io`` at module
    # level, so a module-level import here would be circular.
    from repro.core.preprocessor import QueryPreProcessor
    from repro.sim.runspec import RunSpec
    from repro.sim.simulator import SimulationConfig, Simulator

    trace = read_trace(path)
    meta = trace.meta
    recorded_workers = int(meta.get("workers", 1))
    run_workers = recorded_workers if workers is None else workers
    if store_path is not None:
        simulator = Simulator.from_store(store_path)
    else:
        simulator = Simulator(SimulationConfig(bucket_count=int(meta.get("bucket_count", 2048))))
    preprocessor = QueryPreProcessor(simulator.layout)
    for query in trace.queries:
        if not query.objects:  # objects are placed by position and always fit
            preprocessor.assign(query)
    spec = RunSpec(
        policy=str(meta.get("policy", "liferaft")).partition("(")[0] or "liferaft",
        alpha=float(meta.get("alpha") or 0.25),
        workers=run_workers,
        backend=backend,
        enable_stealing=bool(meta.get("enable_stealing", True)),
        saturation_qps=meta.get("saturation_qps"),
        label=str(meta.get("label", "")),
    )
    return Replay(
        trace=trace,
        simulator=simulator,
        spec=spec,
        digest_checked=bool(trace.expected_digest) and run_workers == recorded_workers,
    )
