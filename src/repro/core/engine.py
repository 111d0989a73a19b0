"""The LifeRaft engine: the query-processing loop of Figure 3.

The engine wires together the pre-processor, workload manager, bucket
cache, hybrid join evaluator and a scheduling policy.  It exposes a small
surface:

* :meth:`LifeRaftEngine.submit` — a client query arrives and is split into
  per-bucket workloads;
* :meth:`LifeRaftEngine.process_next` — service the next work item chosen
  by the scheduler, returning what was done and what it cost (the caller
  owns the clock, so the same engine is driven by the online examples and
  by the discrete-event simulator; called without a time it reads and
  advances the engine's internal virtual clock);
* :meth:`LifeRaftEngine.report` — throughput, response times, cache hit
  rate and the lane's cost totals.

The schedule-evaluate-drain core of a single bucket service lives in
:class:`ServiceLoop` so that the serial engine and every shard worker of
a sharded run (:mod:`repro.parallel`) execute the *same* code path: one
scheduling decision, one hybrid-join evaluation, one queue drain, with
identical accounting.  A lane's running totals (services, busy time,
I/O, match cost, matches per strategy, cache hits) are kept once, as
counters of the lane's :class:`~repro.telemetry.registry.MetricsRegistry`;
:func:`build_engine_report` is the one rule that turns a snapshot of
them — one lane's, or a sharded run's merge of its lanes — into an
:class:`EngineReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.bucket_cache import BucketCacheManager, PAPER_CACHE_BUCKETS
from repro.core.join_evaluator import HybridJoinEvaluator, JoinResult, JoinStrategy
from repro.core.metrics import CostModel
from repro.core.preprocessor import QueryPreProcessor
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig, SchedulingPolicy, WorkItem
from repro.core.workload_manager import WorkloadManager
from repro.storage.bucket_store import BucketStore
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import PartitionLayout
from repro.telemetry.registry import REAL_DOMAIN, MetricsRegistry, metric_value
from repro.workload.query import CrossMatchQuery

#: Virtual-millisecond bounds of the per-batch service-cost histogram
#: (bucket reads are ~1200 ms at paper constants; cache hits far less).
BATCH_COST_BOUNDS_MS = (1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)
#: Queries served per batch (sharing depth) histogram bounds.
BATCH_QUERY_BOUNDS = (1, 2, 4, 8, 16, 32, 64)
#: Default windowed-series cadence, expressed in bucket-read costs — the
#: same sizing rule as the parallel coordinator's steal quantum, but kept
#: here (the series cadence must not depend on importing the backends).
DEFAULT_SERIES_WINDOW_BUCKET_READS = 64.0
#: Slack used when flushing series barriers against virtual timestamps,
#: matching the arrival-delivery slack of the replay loops.
_SERIES_TIME_EPS = 1e-9


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the engine that are not part of the scheduling policy."""

    cache_buckets: int = PAPER_CACHE_BUCKETS
    cost: CostModel = field(default_factory=CostModel.paper_defaults)
    #: Hybrid-join threshold as a fraction of the bucket; ``None`` derives
    #: the break-even point from the cost model.
    hybrid_threshold_fraction: Optional[float] = None
    enable_hybrid: bool = True
    match_probability: float = 0.85
    #: Windowed-series sampling cadence in virtual ms; ``None`` derives
    #: :data:`DEFAULT_SERIES_WINDOW_BUCKET_READS` bucket reads from the
    #: cost model.  Sampling never perturbs the virtual clock.
    series_window_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache_buckets <= 0:
            raise ValueError("cache_buckets must be positive")
        if self.series_window_ms is not None and self.series_window_ms <= 0:
            raise ValueError("series_window_ms must be positive")

    def resolved_series_window_ms(self) -> float:
        """The windowed-series cadence this config describes."""
        if self.series_window_ms is not None:
            return self.series_window_ms
        return self.cost.tb_ms * DEFAULT_SERIES_WINDOW_BUCKET_READS


@dataclass
class BatchResult:
    """What one call to :meth:`LifeRaftEngine.process_next` accomplished."""

    work_item: WorkItem
    join: JoinResult
    queries_served: Tuple[int, ...]
    queries_completed: Tuple[int, ...]
    started_at_ms: float
    finished_at_ms: float
    #: Objects drained per served query, aligned with :attr:`queries_served`
    #: (the per-query share of the batch — what a result chunk reports).
    objects_served: Tuple[int, ...] = ()

    @property
    def bucket_index(self) -> int:
        """The serviced bucket (named as on a ``BatchRecord``)."""
        return self.work_item.bucket_index

    @property
    def cost_ms(self) -> float:
        """Service time of the batch."""
        return self.join.cost_ms

    @property
    def io_ms(self) -> float:
        """I/O component of the batch cost (zero on a cache hit)."""
        return self.join.io_cost_ms

    @property
    def match_ms(self) -> float:
        """Match/computation component of the batch cost."""
        return self.join.match_cost_ms


@dataclass
class EngineReport:
    """Aggregate outcome of everything the engine has processed so far."""

    scheduler_name: str
    submitted_queries: int
    completed_queries: int
    busy_time_ms: float
    makespan_ms: float
    response_times_ms: Dict[int, float]
    bucket_services: int
    cache_hit_rate: float
    strategy_counts: Dict[str, int]
    total_io_ms: float
    total_match_ms: float
    total_matches: int

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.completed_queries / (self.makespan_ms / 1000.0)


def build_engine_report(
    scheduler_name: str,
    submitted_queries: int,
    response_times_ms: Dict[int, float],
    first_arrival_ms: Optional[float],
    last_completion_ms: float,
    snapshot: dict,
) -> EngineReport:
    """The one rule from lane totals to an :class:`EngineReport`.

    *snapshot* is the serial lane's registry snapshot, or a sharded run's
    merge of its lanes in worker-id order (counters add, so every backend
    folds the same floats the same way).  The cache hit rate is recomputed
    from the pooled hit and miss counters; the makespan spans the first
    arrival to the last completion.
    """
    hits = metric_value(snapshot, "cache.hits")
    accesses = hits + metric_value(snapshot, "cache.misses")
    return EngineReport(
        scheduler_name=scheduler_name,
        submitted_queries=submitted_queries,
        completed_queries=len(response_times_ms),
        busy_time_ms=float(metric_value(snapshot, "engine.busy_ms")),
        makespan_ms=max(0.0, last_completion_ms - (first_arrival_ms or 0.0)),
        response_times_ms=response_times_ms,
        bucket_services=metric_value(snapshot, "engine.services"),
        cache_hit_rate=hits / accesses if accesses else 0.0,
        strategy_counts={
            s.value: metric_value(snapshot, "engine.strategy_services", {"strategy": s.value})
            for s in JoinStrategy
        },
        total_io_ms=float(metric_value(snapshot, "engine.io_ms")),
        total_match_ms=float(metric_value(snapshot, "engine.match_ms")),
        total_matches=metric_value(snapshot, "engine.matches"),
    )


class ServiceLoop:
    """The schedule → evaluate → drain pipeline over one workload manager.

    A :class:`ServiceLoop` owns the mutable service-side state of one
    execution lane — the workload manager, the scheduling policy, the
    bucket cache and the hybrid join evaluator — together with the lane's
    metrics registry, the one record of the totals every report reads
    (busy time, per-strategy counts, I/O and match cost totals).  It is
    deliberately clock-free: callers pass ``now_ms`` and own time, so the
    same loop serves the serial :class:`LifeRaftEngine`, the discrete-event
    simulator, and each :class:`repro.parallel.ShardWorker`.
    """

    def __init__(
        self,
        layout: PartitionLayout,
        scheduler: SchedulingPolicy,
        manager: WorkloadManager,
        cache: BucketCacheManager,
        evaluator: HybridJoinEvaluator,
        telemetry: Optional[MetricsRegistry] = None,
        shard: int = 0,
        series_window_ms: Optional[float] = None,
    ) -> None:
        self.layout = layout
        self.scheduler = scheduler
        self.manager = manager
        self.cache = cache
        self.evaluator = evaluator
        #: The batches this lane serviced.  Crash recovery does not replay
        #: the history, so counts are read off the registry, not this list.
        self.batches: List[BatchResult] = []
        #: Per-lane metrics registry: the lane's only record of its totals,
        #: recorded whether or not a run exports telemetry.  Every metric
        #: here is in the virtual domain: bucket services are pure
        #: functions of the lane's arrival schedule, so snapshots are
        #: backend-invariant.  Metric handles are resolved once;
        #: ``_record`` pays one attribute bump per metric per batch (the
        #: bench ratchet keeps that overhead honest).
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        registry = self.telemetry
        self._t_services = registry.counter("engine.services")
        self._t_strategy = {
            s.value: registry.counter("engine.strategy_services", labels={"strategy": s.value})
            for s in JoinStrategy
        }
        self._t_busy_ms = registry.counter("engine.busy_ms")
        self._t_io_ms = registry.counter("engine.io_ms")
        self._t_match_ms = registry.counter("engine.match_ms")
        self._t_matches = registry.counter("engine.matches")
        self._t_queries_completed = registry.counter("engine.queries_completed")
        self._t_objects_served = registry.counter("engine.objects_served")
        self._t_batch_cost = registry.histogram("engine.batch_cost_ms", BATCH_COST_BOUNDS_MS)
        self._t_batch_queries = registry.histogram("engine.batch_queries", BATCH_QUERY_BOUNDS)
        #: Windowed time series, sampled at the first service completion
        #: at-or-after each window barrier ``(k+1)·W``.  The cadence is a
        #: pure function of the lane's service timeline, so the virtual-
        #: domain series are bit-identical across execution backends and
        #: across crash/recovery (the sampler's cursor is the series'
        #: sample count, which rides the ``.lrcp`` telemetry envelope).
        self.shard = shard
        self._series_window_ms = (
            series_window_ms
            if series_window_ms is not None
            else CostModel.paper_defaults().tb_ms * DEFAULT_SERIES_WINDOW_BUCKET_READS
        )
        shard_labels = {"shard": str(shard)}
        window = self._series_window_ms
        self._s_queue_depth = registry.series(
            "series.queue_depth", window, labels=shard_labels
        )
        self._s_backlog_buckets = registry.series(
            "series.backlog_buckets", window, labels=shard_labels
        )
        self._s_cache_buckets = registry.series(
            "series.cache_buckets", window, labels=shard_labels
        )
        #: Tier-2 (decoded-page) occupancy exists only for file-backed
        #: stores and is wall-profile state — shared caches fill in
        #: whatever order the hardware ran — so it samples into the real
        #: domain and is never parity-asserted.
        self._s_page_cache_buckets = (
            registry.series(
                "series.page_cache_buckets",
                window,
                labels=shard_labels,
                domain=REAL_DOMAIN,
            )
            if getattr(cache.store, "page_cache", None) is not None
            else None
        )

    @property
    def total_matches(self) -> int:
        """Matches found by this lane so far (the ``engine.matches`` counter)."""
        return self._t_matches.value

    def has_pending_work(self) -> bool:
        """``True`` while any workload queue of this lane is non-empty."""
        return self.manager.has_pending_work()

    def service_next(self, now_ms: float) -> Optional[BatchResult]:
        """Run one bucket service: pick, evaluate, drain, account.

        Returns ``None`` when the scheduler has nothing to do.  The batch
        starts at *now_ms*; the caller advances its clock to
        ``result.finished_at_ms``.
        """
        work = self.scheduler.next_work(self.manager, self.cache, now_ms)
        if work is None:
            return None
        entries = self.manager.queue(work.bucket_index).entries_of(work.query_ids)
        join = self.evaluator.evaluate(
            self.layout[work.bucket_index],
            entries,
            force_strategy=work.force_strategy,
            share_io=work.share_io,
        )
        finish_ms = now_ms + join.cost_ms
        drained, completed = self.manager.drain_bucket(
            work.bucket_index, finish_ms, query_ids=work.query_ids
        )
        per_query: Dict[int, int] = {}
        for entry in drained:
            per_query[entry.query_id] = per_query.get(entry.query_id, 0) + entry.object_count
        served = tuple(sorted(per_query))
        result = BatchResult(
            work_item=work,
            join=join,
            queries_served=served,
            queries_completed=tuple(completed),
            started_at_ms=now_ms,
            finished_at_ms=finish_ms,
            objects_served=tuple(per_query[query_id] for query_id in served),
        )
        self._record(result)
        self._sample_series(result.finished_at_ms)
        return result

    def _sample_series(self, now_ms: float) -> None:
        """Flush windowed series samples for every barrier ``(k+1)·W ≤ now``.

        Sampling happens at service completions only, after the batch has
        drained, so the recorded state is the lane's post-drain state at
        the first completion at-or-after each barrier.  That instant is a
        pure function of the lane's admitted arrival schedule: arrivals in
        ``(started_at, finished_at]`` have not been ingested yet on any
        backend when this runs, so the virtual-domain samples are
        bit-identical across serial, virtual and process execution.  The
        cursor is the series' own sample count, which rides the ``.lrcp``
        telemetry envelope — after a crash/restore, replayed services
        re-record the post-checkpoint samples with no index overlap.
        """
        window_ms = self._series_window_ms
        count = len(self._s_queue_depth.samples)
        while (count + 1) * window_ms <= now_ms + _SERIES_TIME_EPS:
            self._s_queue_depth.record(count, self.manager.pending_entries())
            self._s_backlog_buckets.record(count, self.manager.pending_bucket_count())
            self._s_cache_buckets.record(count, len(self.cache.resident_buckets()))
            if self._s_page_cache_buckets is not None:
                self._s_page_cache_buckets.record(
                    count, self.cache.store.page_cache.resident_count
                )
            count += 1

    def _record(self, result: BatchResult) -> None:
        self.batches.append(result)
        self._t_services.inc()
        self._t_strategy[result.join.strategy.value].inc()
        self._t_busy_ms.inc(result.cost_ms)
        self._t_io_ms.inc(result.join.io_cost_ms)
        self._t_match_ms.inc(result.join.match_cost_ms)
        self._t_matches.inc(result.join.match_count)
        self._t_queries_completed.inc(len(result.queries_completed))
        self._t_objects_served.inc(sum(result.objects_served))
        self._t_batch_cost.observe(result.cost_ms)
        self._t_batch_queries.observe(len(result.queries_served))


def build_service_loop(
    layout: PartitionLayout,
    store: BucketStore,
    scheduler: SchedulingPolicy,
    config: EngineConfig,
    shard: int = 0,
) -> ServiceLoop:
    """Assemble a :class:`ServiceLoop` with its own cache and evaluator.

    This is the construction recipe shared by the serial engine and by
    every shard worker of the parallel engine: one private LRU bucket
    cache over *store* and one hybrid evaluator bound to it.
    """
    manager = WorkloadManager()
    # One registry per lane: the loop and its cache record into the same
    # family, and the lane's snapshot rides the WorkerResult IPC seam.
    telemetry = MetricsRegistry()
    cache = BucketCacheManager(store, config.cache_buckets, telemetry=telemetry)
    evaluator = HybridJoinEvaluator(
        cost=config.cost,
        cache=cache,
        threshold_fraction=config.hybrid_threshold_fraction,
        enable_hybrid=config.enable_hybrid,
        match_probability=config.match_probability,
    )
    return ServiceLoop(
        layout,
        scheduler,
        manager,
        cache,
        evaluator,
        telemetry=telemetry,
        shard=shard,
        series_window_ms=config.resolved_series_window_ms(),
    )


class LifeRaftEngine:
    """Single-site query processing with data-driven batch scheduling."""

    def __init__(
        self,
        layout: PartitionLayout,
        store: BucketStore,
        scheduler: Optional[SchedulingPolicy] = None,
        index: Optional[SpatialIndex] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        # The index only says whether one exists on the join key; below the
        # engine that fact is ``EngineConfig.enable_hybrid`` alone.
        self.config = config or EngineConfig()
        if index is None:
            self.config = replace(self.config, enable_hybrid=False)
        self.layout = layout
        self.store = store
        self.scheduler: SchedulingPolicy = scheduler or LifeRaftScheduler(
            SchedulerConfig(cost=self.config.cost)
        )
        self.preprocessor = QueryPreProcessor(layout)
        self.loop = build_service_loop(layout, store, self.scheduler, self.config)
        self.manager = self.loop.manager
        self.cache = self.loop.cache
        self.evaluator = self.loop.evaluator
        self._now_ms = 0.0
        self._first_arrival_ms: Optional[float] = None

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #

    def submit(self, query: CrossMatchQuery, now_ms: Optional[float] = None) -> None:
        """Accept a query: pre-process it and enqueue its per-bucket workloads."""
        arrival_ms = now_ms if now_ms is not None else query.arrival_time_s * 1000.0
        assignments = self.preprocessor.assign(query)
        if not assignments:
            # A query with no overlap at this site completes immediately.
            return
        self.manager.add_query(query.query_id, assignments, arrival_ms)
        if self._first_arrival_ms is None or arrival_ms < self._first_arrival_ms:
            self._first_arrival_ms = arrival_ms
        self._now_ms = max(self._now_ms, arrival_ms)

    def has_pending_work(self) -> bool:
        """``True`` while any workload queue is non-empty."""
        return self.manager.has_pending_work()

    # ------------------------------------------------------------------ #
    # the service loop
    # ------------------------------------------------------------------ #

    def process_next(self, now_ms: Optional[float] = None) -> Optional[BatchResult]:
        """Service the next work item chosen by the scheduler.

        Returns ``None`` when nothing is pending.  The caller is responsible
        for advancing its clock by ``result.cost_ms`` (the simulator does);
        the engine's own clock is advanced too so that ages stay meaningful
        when the engine is used standalone.
        """
        start_ms = now_ms if now_ms is not None else self._now_ms
        result = self.loop.service_next(start_ms)
        if result is None:
            return None
        self._now_ms = max(self._now_ms, result.finished_at_ms)
        return result

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def report(self) -> EngineReport:
        """Summarise what the engine has done so far."""
        manager = self.manager
        completed = manager.completed_queries()
        return build_engine_report(
            self.scheduler.name,
            manager.submitted_count(),
            {query_id: manager.response_time_ms(query_id) for query_id in completed},
            self._first_arrival_ms,
            max(map(manager.completion_time_ms, completed), default=0.0),
            self.loop.telemetry.snapshot(),
        )
