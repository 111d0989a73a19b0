"""The serving front-end: async intake above the execution engines.

The front-end decouples *arrival* from *service*.  Clients submit queries
into an :class:`~repro.sim.events.EventQueue`; the intake loop pops
arrivals in virtual-time order, gates each one through admission control
(:mod:`repro.service.admission`), applies backpressure by re-enqueueing
deferred arrivals as ``CONTROL`` retry events, and emits the **admitted
schedule** — each admitted query with the virtual time at which intake
handed it to the engines.  The engines never see the raw trace any more;
they replay the admitted schedule, which is what makes every admission
decision identical across the serial engine and both execution backends.

Dataflow::

    clients ──► EventQueue ──► admission gate ──► admitted schedule
                   ▲                │                    │
                   └── CONTROL ─────┘ (defer)            ▼
                        retries                 engine / backends
                                                        │  bucket drains
                                                        ▼
                                                  StreamHub ──► ResultChunks
                                                        │
                                                        ▼
                                         deadline scoring + ServingReport

Completion of the pipeline is the :class:`ServingReport`: intake
accounting (offered / admitted / rejected / deferrals), client-perceived
time-to-first-result and time-to-completion distributions, and the
per-class SLA table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.engine import (
    _SERIES_TIME_EPS,
    DEFAULT_SERIES_WINDOW_BUCKET_READS,
    BatchResult,
)
from repro.core.metrics import CostModel
from repro.core.preprocessor import QueryPreProcessor
from repro.service.admission import (
    AdmissionDecision,
    AdmissionLimits,
    AdmissionPolicy,
    IntakeModel,
    make_admission_policy,
)
from repro.service.deadline import (
    DEADLINE_CLASSES,
    DeadlineTracker,
    assign_deadline_class,
)
from repro.service.sessions import SessionRegistry
from repro.service.streams import ResultChunk, StreamHub
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.stats import ResponseTimeStats, summarize_response_times
from repro.storage.partitioner import PartitionLayout
from repro.telemetry.registry import REAL_DOMAIN, MetricsRegistry
from repro.workload.query import CrossMatchQuery

__all__ = [
    "AdmissionInstant",
    "AdmittedQuery",
    "IntakeOutcome",
    "LiveServingSampler",
    "RejectedQuery",
    "ServiceConfig",
    "ServingFrontEnd",
    "ServingReport",
]

#: Default deadline-class mix of a serving run.
DEFAULT_DEADLINE_MIX: Dict[str, float] = {
    "interactive": 0.25,
    "standard": 0.5,
    "batch": 0.25,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving front-end."""

    #: Admission policy name ("admit", "reject", "defer") or an instance.
    admission: Union[str, AdmissionPolicy] = "admit"
    #: Max admitted-but-undrained queries (``None`` = unbounded).
    intake_bound: Optional[int] = None
    #: Max distinct pending buckets across in-flight admissions.
    max_pending_buckets: Optional[int] = None
    #: Max per-client offered rate over the trailing window.
    max_client_qps: Optional[float] = None
    #: Synthetic client pool size (queries hash onto it).
    clients: int = 4
    #: Backpressure delay before a deferred arrival is retried.
    defer_delay_ms: float = 5_000.0
    #: Retry budget of a deferred arrival before it is rejected.
    max_defers: int = 4
    #: Deadline-class mix (normalised at use).
    deadline_mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINE_MIX)
    )
    #: Seed of the deterministic class-assignment hash.
    seed: int = 8675309
    #: Optional subscriber invoked for every emitted result chunk.  On the
    #: serial engine chunks fire live, mid-run; on the execution backends
    #: they fire when the run's service records are ingested — in the same
    #: global finish-time order either way.
    on_chunk: Optional[Callable[[ResultChunk], None]] = None
    #: Enable the live wall-clock sampler with this window (real ms):
    #: REAL-domain occupancy/pending-admission series captured while the
    #: run serves.  Wall-clock profile — never parity-asserted, and
    #: excluded from the virtual-domain parity filters by construction.
    live_series_window_ms: Optional[float] = None

    def __post_init__(self) -> None:
        self.limits()  # fail fast on a bad bound
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if self.defer_delay_ms <= 0:
            raise ValueError("defer_delay_ms must be positive")
        if self.live_series_window_ms is not None and self.live_series_window_ms <= 0:
            raise ValueError("live_series_window_ms must be positive")
        if self.max_defers < 0:
            raise ValueError("max_defers cannot be negative")
        total = sum(self.deadline_mix.values())
        if not self.deadline_mix or total <= 0:
            raise ValueError("deadline_mix must have positive total weight")
        unknown = [name for name in self.deadline_mix if name not in DEADLINE_CLASSES]
        if unknown:
            raise ValueError(f"unknown deadline classes in mix: {sorted(unknown)}")

    def limits(self) -> AdmissionLimits:
        """The admission limits this config describes."""
        return AdmissionLimits(
            intake_bound=self.intake_bound,
            max_pending_buckets=self.max_pending_buckets,
            max_client_qps=self.max_client_qps,
        )


@dataclass(frozen=True)
class AdmittedQuery:
    """One admitted arrival: the query plus its intake timing."""

    query: CrossMatchQuery
    #: Per-bucket object counts at this site (the stream's denominator).
    footprint: Mapping[int, int]
    #: Original client arrival (client-perceived latencies start here).
    arrival_ms: float
    #: When intake handed the query to the engines (>= arrival when deferred).
    submit_ms: float
    #: How many backpressure rounds the arrival went through.
    defers: int


@dataclass(frozen=True)
class AdmissionInstant:
    """One gate decision pinned to its virtual-time instant.

    These feed the query-trace flow events: the decision instant is where
    a query's causal chain starts (admit) or ends (reject), with deferred
    attempts marking the backpressure rounds in between.
    """

    time_ms: float
    query_id: int
    #: "admit", "defer" or "reject".
    outcome: str
    #: Which backpressure round produced the decision (0 = first arrival).
    attempt: int


@dataclass(frozen=True)
class RejectedQuery:
    """One shed arrival and why the gate refused it."""

    query: CrossMatchQuery
    arrival_ms: float
    reason: str
    defers: int


@dataclass
class IntakeOutcome:
    """Everything the intake pass produced."""

    admitted: List[AdmittedQuery]
    rejected: List[RejectedQuery]
    #: Arrivals that overlapped no bucket at this site (complete trivially).
    no_overlap: int
    #: Total CONTROL retry events the backpressure path scheduled.
    deferrals: int

    @property
    def offered(self) -> int:
        """Queries clients offered (excluding no-overlap passthroughs)."""
        return len(self.admitted) + len(self.rejected)

    def admitted_queries(self) -> List[CrossMatchQuery]:
        """The admitted schedule as engine-ready queries.

        Arrival times are rewritten to the intake hand-off time, so the
        engines replay exactly what the gate let through, when it let it
        through.
        """
        ordered = sorted(self.admitted, key=lambda a: (a.submit_ms, a.query.query_id))
        return [a.query.with_arrival_time(a.submit_ms / 1000.0) for a in ordered]


@dataclass
class ServingReport:
    """Outcome of one serving run, from the client's point of view."""

    admission_policy: str
    clients: int
    offered: int
    admitted: int
    rejected: int
    deferrals: int
    completed: int
    chunks: int
    #: Client-perceived time-to-first-result distribution (seconds).
    ttfr_stats: ResponseTimeStats
    #: Client-perceived time-to-completion distribution (seconds).
    completion_stats: ResponseTimeStats
    #: Per-class SLA table (class, admitted, rejected, completed,
    #: first-result hit rate, completion hit rate).
    deadline_rows: List[Tuple[str, int, int, int, float, float]]
    #: Aggregate SLA hit rates (zero-safe on empty runs).
    deadline_summary: Dict[str, float]

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered queries the gate shed (0 for an empty run)."""
        if self.offered <= 0:
            return 0.0
        return self.rejected / self.offered

    @property
    def avg_time_to_first_result_s(self) -> float:
        """Mean TTFR over streamed queries (0 when nothing streamed)."""
        return self.ttfr_stats.mean_s

    @property
    def avg_time_to_completion_s(self) -> float:
        """Mean client-perceived completion latency (0 when none completed)."""
        return self.completion_stats.mean_s


class LiveServingSampler:
    """Real-domain wall-clock sampler over a live serving run.

    The PR-9 series layer samples in *virtual* time at deterministic
    barriers; this is its real-time twin.  While a run serves, the
    sampler captures occupancy series against the **wall clock** —
    ``series.live_open_streams`` (streams registered but incomplete),
    ``series.live_pending_admissions`` (in-flight admitted work) and
    ``series.live_chunks_emitted`` (cumulative chunks) — into the
    front-end's registry under the REAL domain, so they ride the normal
    snapshot/merge/export seams but are never parity-asserted (two runs
    of the same spec legitimately produce different wall profiles).

    Ticks are driven by chunk emission (the hub subscription) plus one
    final flush at ``finish()``; the window cursor is the series' own
    sample count against elapsed wall milliseconds — the same barrier
    rule as the virtual series, just on a different clock
    (``time.perf_counter``).
    """

    def __init__(self, frontend: "ServingFrontEnd", window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError("live sampler window_ms must be positive")
        self._frontend = frontend
        self.window_ms = window_ms
        self._origin_s: Optional[float] = None
        registry = frontend.telemetry
        self._s_open = registry.series(
            "series.live_open_streams", window_ms, domain=REAL_DOMAIN
        )
        self._s_pending = registry.series(
            "series.live_pending_admissions", window_ms, domain=REAL_DOMAIN
        )
        self._s_chunks = registry.series(
            "series.live_chunks_emitted", window_ms, domain=REAL_DOMAIN
        )
        frontend.hub.subscribe(self._on_chunk)

    def elapsed_ms(self) -> float:
        """Wall milliseconds since the first tick (0 before it)."""
        if self._origin_s is None:
            return 0.0
        return (time.perf_counter() - self._origin_s) * 1000.0

    def _on_chunk(self, _chunk: ResultChunk) -> None:
        self.tick()

    def tick(self) -> None:
        """Close every wall window that elapsed since the last tick."""
        if self._origin_s is None:
            self._origin_s = time.perf_counter()
        elapsed_ms = self.elapsed_ms()
        count = self._s_open.sample_count
        while (count + 1) * self.window_ms <= elapsed_ms + _SERIES_TIME_EPS:
            self._record(count)
            count += 1

    def finish(self) -> None:
        """Flush pending windows and stamp one final end-of-run sample."""
        self.tick()
        self._record(self._s_open.sample_count)

    def _record(self, index: int) -> None:
        frontend = self._frontend
        self._s_open.record(index, float(frontend.hub.open_stream_count()))
        self._s_pending.record(index, float(frontend.model.pending_admissions()))
        self._s_chunks.record(index, float(frontend.hub.total_chunks))


class ServingFrontEnd:
    """Async intake, admission control and result streaming over one run."""

    def __init__(
        self,
        config: ServiceConfig,
        layout: PartitionLayout,
        cost: CostModel,
        series_window_ms: Optional[float] = None,
    ) -> None:
        self.config = config
        self.preprocessor = QueryPreProcessor(layout)
        self.policy = make_admission_policy(config.admission)
        self.limits = config.limits()
        self.model = IntakeModel(cost)
        self.sessions = SessionRegistry(clients=config.clients)
        self.deadlines = DeadlineTracker()
        self.hub = StreamHub()
        if config.on_chunk is not None:
            self.hub.subscribe(config.on_chunk)
        self.intake: Optional[IntakeOutcome] = None
        self._finalized = False
        #: Admission is a pure function of the arrival stream, so these
        #: counters live in the virtual domain (backend-invariant).
        self.telemetry = MetricsRegistry()
        self._t_admitted = self.telemetry.counter(
            "admission.decisions", labels={"outcome": "admitted"}
        )
        self._t_rejected = self.telemetry.counter(
            "admission.decisions", labels={"outcome": "rejected"}
        )
        self._t_deferred = self.telemetry.counter(
            "admission.decisions", labels={"outcome": "deferred"}
        )
        self._t_no_overlap = self.telemetry.counter("admission.no_overlap")
        #: The intake loop runs coordinator-side on every backend, so its
        #: windowed pending-admissions series is virtual-domain too.
        self._series_window_ms = (
            series_window_ms
            if series_window_ms is not None
            else cost.tb_ms * DEFAULT_SERIES_WINDOW_BUCKET_READS
        )
        self._s_pending = self.telemetry.series(
            "series.pending_admissions", self._series_window_ms
        )
        #: Every gate decision, in virtual-time order (trace flow events).
        self._admission_instants: List[AdmissionInstant] = []
        #: Wall-clock occupancy sampler (real domain, never parity-asserted);
        #: enabled by :attr:`ServiceConfig.live_series_window_ms`.
        self.live_sampler: Optional[LiveServingSampler] = None
        if config.live_series_window_ms is not None:
            self.live_sampler = LiveServingSampler(self, config.live_series_window_ms)

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #

    def admit(self, queries: Sequence[CrossMatchQuery]) -> IntakeOutcome:
        """Run the intake loop over one arrival stream.

        Arrivals are driven through the event queue in virtual-time order;
        deferred arrivals re-enter as ``CONTROL`` retry events (FIFO within
        a timestamp, so a retry racing a fresh arrival is resolved by
        enqueue order — deterministically).  Every event — arrival, retry
        or series barrier — consults :class:`IntakeModel`, which retires
        expired work incrementally, so the pass is linear in the number
        of events whatever the depth of the backlog behind the gate.
        """
        if self.intake is not None:
            raise RuntimeError("the front-end has already run its intake pass")
        events = EventQueue()
        ordered = sorted(queries, key=lambda q: (q.arrival_time_s, q.query_id))
        no_overlap = 0
        for query in ordered:
            footprint = self.preprocessor.footprint(query)
            if not footprint:
                # No overlap at this site: completes immediately, bypassing
                # both the gate and the engines (as in the plain replay).
                no_overlap += 1
                self._t_no_overlap.inc()
                continue
            arrival_ms = query.arrival_time_s * 1000.0
            events.push(
                Event(
                    arrival_ms,
                    EventKind.QUERY_ARRIVAL,
                    payload=(query, footprint, arrival_ms, 0),
                )
            )
        admitted: List[AdmittedQuery] = []
        rejected: List[RejectedQuery] = []
        deferrals = 0
        while events:
            event = events.pop()
            query, footprint, arrival_ms, attempt = event.payload
            now_ms = event.time_ms
            self._flush_pending_series(now_ms)
            session = self.sessions.session_for(query)
            if attempt == 0:
                session.observe_offer(now_ms)
                # A class recorded on the query itself (scenario traces)
                # wins over the configured mix draw; both are pure
                # functions of the arrival stream, so admission stays
                # backend-invariant either way.
                if query.deadline_class is not None:
                    if query.deadline_class not in DEADLINE_CLASSES:
                        raise ValueError(
                            f"query {query.query_id} carries unknown deadline "
                            f"class {query.deadline_class!r}; available: "
                            f"{sorted(DEADLINE_CLASSES)}"
                        )
                    class_name = query.deadline_class
                else:
                    class_name = assign_deadline_class(
                        query.query_id, self.config.deadline_mix, self.config.seed
                    )
                self.deadlines.assign(query.query_id, class_name)
            snapshot = self.model.snapshot(now_ms, session.offered_rate_qps(now_ms))
            decision = self.policy.decide(snapshot, self.limits)
            if decision is AdmissionDecision.DEFER and attempt >= self.config.max_defers:
                decision = AdmissionDecision.REJECT
            if decision is AdmissionDecision.ADMIT:
                self._t_admitted.inc()
                self._admission_instants.append(
                    AdmissionInstant(now_ms, query.query_id, "admit", attempt)
                )
                self.model.admit(query.query_id, footprint, now_ms)
                self.deadlines.on_admitted(query.query_id)
                admitted.append(
                    AdmittedQuery(
                        query=query,
                        footprint=footprint,
                        arrival_ms=arrival_ms,
                        submit_ms=now_ms,
                        defers=attempt,
                    )
                )
            elif decision is AdmissionDecision.DEFER:
                self._t_deferred.inc()
                self._admission_instants.append(
                    AdmissionInstant(now_ms, query.query_id, "defer", attempt)
                )
                deferrals += 1
                events.push(
                    Event(
                        now_ms + self.config.defer_delay_ms,
                        EventKind.CONTROL,
                        payload=(query, footprint, arrival_ms, attempt + 1),
                    )
                )
            else:
                self._t_rejected.inc()
                self._admission_instants.append(
                    AdmissionInstant(now_ms, query.query_id, "reject", attempt)
                )
                self.deadlines.on_rejected(query.query_id)
                reason = ",".join(snapshot.breached(self.limits)) or "rejected"
                rejected.append(RejectedQuery(query, arrival_ms, reason, attempt))
        self.intake = IntakeOutcome(
            admitted=admitted,
            rejected=rejected,
            no_overlap=no_overlap,
            deferrals=deferrals,
        )
        for admission in admitted:
            self.hub.register(
                admission.query.query_id, admission.footprint.keys(), admission.arrival_ms
            )
        return self.intake

    def _flush_pending_series(self, now_ms: float) -> None:
        """Sample in-flight admissions at every barrier ``(k+1)·W ≤ now``.

        ``IntakeModel.advance`` is monotone (it only retires work whose
        estimated drain time has passed), so advancing to an earlier
        barrier before processing the event at *now_ms* never perturbs
        admission decisions — and admissions only change at events, so
        the barrier value is exact, not an approximation.  The same
        monotonicity carries the model's data structure: drain estimates
        never decrease from one admission to the next, so ``advance`` pops
        expired work off the front of one drain-ordered queue and a
        barrier costs what it retires, not a pass over the backlog.
        """
        window_ms = self._series_window_ms
        count = self._s_pending.sample_count
        while (count + 1) * window_ms <= now_ms + _SERIES_TIME_EPS:
            boundary_ms = (count + 1) * window_ms
            self.model.advance(boundary_ms)
            self._s_pending.record(count, self.model.pending_admissions())
            count += 1

    def admission_records(self) -> Tuple[AdmissionInstant, ...]:
        """Every gate decision with its virtual-time instant, in order."""
        return tuple(self._admission_instants)

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def on_batch(self, batch: BatchResult) -> List[ResultChunk]:
        """Feed one serial-engine bucket service into the result streams."""
        return self.hub.on_service(
            batch.bucket_index,
            batch.queries_served,
            batch.objects_served,
            batch.finished_at_ms,
        )

    def ingest_records(self, records: Iterable) -> int:
        """Feed a backend's service log (already in global finish order)."""
        return self.hub.ingest_records(records)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def finalize(self) -> None:
        """Score every completed stream against its deadline class."""
        if self._finalized:
            return
        self._finalized = True
        if self.live_sampler is not None:
            self.live_sampler.finish()
        for stream in self.hub.streams():
            if not stream.is_complete:
                continue
            ttfr = stream.time_to_first_result_ms
            ttc = stream.time_to_completion_ms
            self.deadlines.on_completed(
                stream.query_id,
                ttfr / 1000.0 if ttfr is not None else None,
                ttc / 1000.0 if ttc is not None else None,
            )
        # Per-class SLA tallies become counters exactly once, after the
        # streams are scored, so they ride the same snapshot/merge seam
        # as the admission counters (and stay backend-invariant).
        for class_name, counts in self.deadlines.class_counts().items():
            for field_name, value in counts.items():
                self.telemetry.counter(
                    f"sla.{field_name}", labels={"class": class_name}
                ).inc(value)

    def report(self) -> ServingReport:
        """Summarise the run (intake, streaming latencies, SLA table)."""
        if self.intake is None:
            raise RuntimeError("report() requires an intake pass first")
        self.finalize()
        return ServingReport(
            admission_policy=self.policy.name,
            clients=self.config.clients,
            offered=self.intake.offered,
            admitted=len(self.intake.admitted),
            rejected=len(self.intake.rejected),
            deferrals=self.intake.deferrals,
            completed=len(self.hub.completed_queries()),
            chunks=self.hub.total_chunks,
            ttfr_stats=summarize_response_times(self.hub.time_to_first_result_s()),
            completion_stats=summarize_response_times(self.hub.time_to_completion_s()),
            deadline_rows=self.deadlines.rows(),
            deadline_summary=self.deadlines.summary(),
        )
