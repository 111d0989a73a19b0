"""The open-system simulator that replays a trace against a LifeRaft engine.

The simulator owns virtual time.  Queries are delivered to the engine at
their arrival timestamps; the engine services one work item at a time (the
scheduler's choice), each service advancing the clock by the cost the
evaluator charges.  Arrivals that occur during a service are enqueued with
their true arrival time, so request ages — and therefore the aged workload
throughput metric — behave exactly as in a live system.

A :class:`SimulationResult` gathers everything the paper's evaluation
reports: query throughput, average response time and its coefficient of
variance, cache hit rate, and per-strategy service counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.core.baselines import POLICY_NAMES, make_policy
from repro.core.bucket_cache import PAPER_CACHE_BUCKETS
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.metrics import CostModel
from repro.core.scheduler import SchedulingPolicy
from repro.sim.runspec import DEFAULT_STORE, RunSpec
from repro.sim.stats import ResponseTimeStats, summarize_response_times
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import DiskBucketStore, open_disk_store
from repro.storage.format import read_layout
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner, PartitionLayout
from repro.telemetry.ledger import build_run_ledger
from repro.telemetry.registry import merge_snapshots, snapshot_to_json
from repro.telemetry.spans import build_chrome_trace, write_chrome_trace
from repro.workload.query import CrossMatchQuery
from repro.workload.trace_io import run_digest, write_trace

if TYPE_CHECKING:
    from repro.reliability.config import ReliabilityReport
    from repro.service.frontend import ServingFrontEnd, ServingReport

__all__ = [
    "POLICY_NAMES",
    "RunSpec",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "VIRTUAL_CLOCK_PARITY_FIELDS",
    "make_policy",
]

#: The :class:`SimulationResult` fields that must be bit-identical across
#: storage tiers (in-memory vs file-backed) and execution backends — the
#: single source of truth for the CLI's ``--verify-against-memory`` gate,
#: the storage demo and the parity docs.  Every deterministic virtual-clock
#: total belongs here; real-time measurements (``real_elapsed_s``,
#: ``real_read_s``) do not.
VIRTUAL_CLOCK_PARITY_FIELDS = (
    "completed_queries",
    "busy_time_s",
    "total_io_s",
    "total_match_s",
    "bucket_services",
    "bucket_reads",
    "cache_hit_rate",
    "throughput_qps",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Static configuration of the simulated site.

    Defaults follow the paper's setup (10,000-object / 40 MB buckets,
    20-bucket cache, paper cost constants); ``bucket_count`` is the scaled
    knob — the paper's SDSS table has ~20,000 buckets, the default here is
    sized for minutes-long laptop runs.
    """

    bucket_count: int = 2_048
    objects_per_bucket: int = 10_000
    bucket_megabytes: float = 40.0
    cache_buckets: int = PAPER_CACHE_BUCKETS
    cost: CostModel = field(default_factory=CostModel.paper_defaults)
    enable_hybrid: bool = True
    hybrid_threshold_fraction: Optional[float] = None
    match_probability: float = 0.85
    #: File-backed runs only: tier-2 decoded-page cache capacity.  ``None``
    #: uses the storage default; ``0`` disables the tier entirely (every
    #: tier-1 miss performs a physical read — the cache ablation's "off"
    #: arm).  Virtual-clock numbers are tier-invariant either way.
    page_cache_buckets: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        if self.page_cache_buckets is not None and self.page_cache_buckets < 0:
            raise ValueError("page_cache_buckets must be non-negative")


@dataclass
class SimulationResult:
    """Outcome of one simulated run of one policy over one trace."""

    policy_name: str
    alpha: Optional[float]
    submitted_queries: int
    completed_queries: int
    makespan_s: float
    busy_time_s: float
    throughput_qps: float
    response_stats: ResponseTimeStats
    cache_hit_rate: float
    bucket_services: int
    bucket_reads: int
    strategy_counts: Dict[str, int]
    total_io_s: float
    total_match_s: float
    saturation_qps: Optional[float] = None
    label: str = ""
    #: Parallel runs only: shard count, steal count and virtual wall clock.
    workers: int = 1
    steals: int = 0
    wall_clock_s: float = 0.0
    #: Execution backend that produced the run ("serial" for :meth:`Simulator.run`).
    backend: str = "serial"
    #: Real (measured) wall-clock seconds of the run, including backend setup.
    real_elapsed_s: float = 0.0
    #: Serving runs only: the front-end's report (intake, streams, SLAs).
    serving: Optional["ServingReport"] = None
    #: Which storage tier served bucket reads: "memory" or "file".
    store_backend: str = "memory"
    #: File-backed runs only: wall-clock seconds spent in physical page
    #: reads + columnar decoding (summed over workers for process runs).
    real_read_s: float = 0.0
    #: File-backed serial runs only: physical page reads that reached the
    #: store file (tier-2 misses) — what the cache ablation compares.
    page_reads: int = 0
    #: Reliability runs only: checkpoints written, crashes, recoveries.
    reliability: Optional["ReliabilityReport"] = None
    #: Merged metrics snapshot of the run (``None`` when the spec disabled
    #: collection).  The virtual domain of this snapshot is bit-identical
    #: across storage tiers and execution backends at a fixed worker count;
    #: the real domain is wall-clock profile and never parity-asserted.
    telemetry: Optional[dict] = None
    #: Per-query cost ledger (``None`` when the spec disabled telemetry):
    #: each query's makespan decomposed into admission/queue/service/IO
    #: components with sharing attribution (see
    #: :mod:`repro.telemetry.ledger`).  Entirely virtual-domain, so
    #: bit-identical across execution backends at a fixed worker count
    #: and across crash/recovery.
    ledger: Optional[dict] = None
    #: SHA-256 over the per-query completion timeline plus every
    #: :data:`VIRTUAL_CLOCK_PARITY_FIELDS` value — equal digests mean
    #: bit-identical virtual-clock outcomes (``liferaft replay`` pins it).
    result_digest: str = ""

    @property
    def avg_response_time_s(self) -> float:
        """Mean query response time in seconds.

        Zero-completed runs — e.g. a serving run whose admission gate shed
        everything — report 0.0: :func:`summarize_response_times` returns
        an all-zero summary for an empty sample (the regression tests in
        ``tests/service/test_frontend.py`` pin this down).
        """
        return self.response_stats.mean_s

    @property
    def response_time_cov(self) -> float:
        """Coefficient of variance of the response time (Figure 7b).

        Like :attr:`avg_response_time_s`, reports 0.0 on zero-completed
        runs (the stats layer never divides by an empty mean).
        """
        return self.response_stats.coefficient_of_variance


def _stamp_digest(result: SimulationResult, response_times_ms: Dict[int, float]) -> None:
    """Stamp the run's :attr:`SimulationResult.result_digest` in place."""
    result.result_digest = run_digest(
        response_times_ms,
        [float(getattr(result, name)) for name in VIRTUAL_CLOCK_PARITY_FIELDS],
    )


#: Backwards-compatible alias of :data:`repro.sim.runspec.DEFAULT_STORE`.
_DEFAULT_STORE = DEFAULT_STORE


class Simulator:
    """Replays traces against a freshly built engine per run.

    With *store_path* set, every run opens the columnar on-disk bucket
    store at that path instead of building an in-memory
    :class:`BucketStore`: bucket services then perform real seeks, reads
    and columnar decoding while charging identical virtual-clock costs.
    A per-run :attr:`RunSpec.store_path` overrides the default (``None``
    explicitly forces in-memory, which is how the parity checks compare
    the two tiers on one simulator).
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        store_path: Optional[Union[str, os.PathLike]] = None,
        _store_layout: Optional[PartitionLayout] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.store_path = os.fspath(store_path) if store_path is not None else None
        if self.store_path is not None:
            # The file defines the site: adopt its layout (validating the
            # configured partition size so cost-model assumptions hold).
            # ``_store_layout`` lets :meth:`from_store` hand over the layout
            # it already parsed instead of reading the directory twice.
            self._layout = (
                _store_layout if _store_layout is not None else read_layout(self.store_path)
            )
            if len(self._layout) != self.config.bucket_count:
                raise ValueError(
                    f"store file {self.store_path!r} has {len(self._layout)} "
                    f"buckets but the simulation is configured for "
                    f"{self.config.bucket_count}"
                )
        else:
            self._layout = self._build_layout()

    @classmethod
    def from_store(
        cls,
        store_path: Union[str, os.PathLike],
        config: Optional[SimulationConfig] = None,
    ) -> "Simulator":
        """Build a simulator whose site is defined by a store file.

        When *config* is omitted it is derived from the file (bucket
        count from the directory, paper defaults elsewhere), so any
        ingested store — density-materialised or catalog-partitioned —
        can be replayed against directly.
        """
        layout = read_layout(store_path)
        if config is None:
            config = SimulationConfig(bucket_count=len(layout))
        return cls(config, store_path=store_path, _store_layout=layout)

    @property
    def layout(self) -> PartitionLayout:
        """The partition layout shared by every run of this simulator."""
        return self._layout

    def _build_layout(self) -> PartitionLayout:
        partitioner = BucketPartitioner(
            objects_per_bucket=self.config.objects_per_bucket,
            bucket_megabytes=self.config.bucket_megabytes,
        )
        return partitioner.partition_density(self.config.bucket_count)

    def _resolve_store_path(self, store_path) -> Optional[str]:
        if store_path is _DEFAULT_STORE:
            return self.store_path
        return os.fspath(store_path) if store_path is not None else None

    def _build_store(self, store_path=_DEFAULT_STORE) -> BucketStore:
        disk = calibrated_disk_for_bucket_read(
            self.config.bucket_megabytes, self.config.cost.tb_ms / 1000.0
        )
        path = self._resolve_store_path(store_path)
        if path is None:
            return BucketStore(self._layout, disk)
        if self.config.page_cache_buckets is not None:
            store = open_disk_store(
                path, disk, page_cache_buckets=self.config.page_cache_buckets
            )
        else:
            store = open_disk_store(path, disk)
        if store.layout != self._layout:
            store.close()
            raise ValueError(
                f"store file {path!r} describes a different partition than "
                "this simulator's layout (bucket boundaries, counts or sizes "
                "differ); re-ingest it for this site"
            )
        return store

    def _engine_config(self, spec: Optional[RunSpec] = None) -> EngineConfig:
        return EngineConfig(
            cache_buckets=self.config.cache_buckets,
            cost=self.config.cost,
            hybrid_threshold_fraction=self.config.hybrid_threshold_fraction,
            enable_hybrid=self.config.enable_hybrid,
            match_probability=self.config.match_probability,
            series_window_ms=spec.series_window_ms if spec is not None else None,
        )

    def _build_engine(
        self,
        policy: SchedulingPolicy,
        store: Optional[BucketStore] = None,
        spec: Optional[RunSpec] = None,
    ) -> LifeRaftEngine:
        # An (empty) index object signals that an index on the join key
        # exists, enabling the hybrid strategy; cost accounting for index
        # services flows through the cost model, not through this object.
        index = SpatialIndex([], rows=None, disk=None)
        return LifeRaftEngine(
            self._layout,
            store if store is not None else self._build_store(),
            scheduler=policy,
            index=index,
            config=self._engine_config(spec),
        )

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def execute(
        self, queries: Sequence[CrossMatchQuery], spec: Optional[RunSpec] = None
    ) -> SimulationResult:
        """Simulate one trace under one :class:`RunSpec` — the public entry point.

        The spec decides everything that varies per run: scheduling
        policy, execution engine (serial vs sharded, and which backend),
        serving front-end, reliability plan, and storage-tier override.
        ``execute(queries)`` runs the defaults: serial LifeRaft at
        α = 0.25 against the simulator's default store.

        Dispatch follows :attr:`RunSpec.is_parallel`: a named backend,
        ``workers > 1`` or a reliability config selects the sharded
        parallel engine; everything else runs the serial discrete-event
        loop.  Virtual-clock results are dispatch-invariant (the parity
        tests pin ``workers=1`` parallel runs to the serial numbers).
        """
        spec = spec if spec is not None else RunSpec()
        if spec.is_parallel:
            result = self._execute_parallel(queries, spec)
        else:
            result = self._execute_serial(queries, spec)
        if spec.record_trace:
            # Record the *original* (pre-admission) arrival stream:
            # admission is a pure function of it, so a replay reproduces
            # the recorded run end to end, shed queries included.
            self._record_trace(spec.record_trace, queries, spec, result)
        return result

    def _record_trace(
        self,
        path: str,
        queries: Sequence[CrossMatchQuery],
        spec: RunSpec,
        result: SimulationResult,
    ) -> None:
        """Write the run's arrival stream + digest as a ``.lrtr`` trace."""
        meta = {
            # The registry name (replayable); constructed policy objects
            # fall back to their display name.
            "policy": spec.policy if isinstance(spec.policy, str) else result.policy_name,
            "alpha": result.alpha,
            "workers": spec.workers,
            "backend": result.backend,
            "shard_strategy": spec.shard_strategy,
            "enable_stealing": spec.enable_stealing,
            "saturation_qps": spec.saturation_qps,
            "label": spec.label,
            "bucket_count": self.config.bucket_count,
            "store_backend": result.store_backend,
            "served_with_admission": spec.service is not None,
        }
        write_trace(path, queries, meta=meta, expected_digest=result.result_digest)

    def _execute_serial(
        self, queries: Sequence[CrossMatchQuery], spec: RunSpec
    ) -> SimulationResult:
        """The serial discrete-event loop (arrivals in virtual time)."""
        policy = spec.policy
        if isinstance(policy, str):
            policy = make_policy(policy, alpha=spec.alpha, cost=self.config.cost)
        # Client arrivals (pre-admission): the ledger charges gate wait
        # against these, not the rewritten engine hand-off times.
        client_arrivals_ms = {q.query_id: q.arrival_time_s * 1000.0 for q in queries}
        frontend = self._build_frontend(spec)
        if frontend is not None:
            queries = frontend.admit(queries).admitted_queries()
        # Every store is a context manager (a no-op close for the in-memory
        # store), so a failed run can never leak an open store fd.
        with self._build_store(spec.store_path) as store:
            engine = self._build_engine(policy, store=store, spec=spec)
            ordered = sorted(queries, key=lambda q: (q.arrival_time_s, q.query_id))
            arrivals_ms = [q.arrival_time_s * 1000.0 for q in ordered]
            index = 0
            total = len(ordered)
            now_ms = arrivals_ms[0] if ordered else 0.0
            while index < total or engine.has_pending_work():
                if not engine.has_pending_work() and index < total:
                    # Idle: jump to the next arrival.
                    now_ms = max(now_ms, arrivals_ms[index])
                while index < total and arrivals_ms[index] <= now_ms + 1e-9:
                    engine.submit(ordered[index], now_ms=arrivals_ms[index])
                    index += 1
                if not engine.has_pending_work():
                    continue
                result = engine.process_next(now_ms)
                if result is None:
                    break
                if frontend is not None:
                    frontend.on_batch(result)
                now_ms = result.finished_at_ms
            summary = self._summarise(
                engine, policy, spec.alpha, spec.label, spec.saturation_qps
            )
            if frontend is not None:
                summary.serving = frontend.report()
            if isinstance(store, DiskBucketStore):
                summary.store_backend = "file"
                summary.real_read_s = store.real_read_s
                summary.page_reads = store.page_reads
            store_registry = getattr(store, "telemetry", None)
            snapshot = merge_snapshots(
                [
                    engine.loop.telemetry.snapshot(),
                    store_registry.snapshot() if store_registry is not None else None,
                    frontend.telemetry.snapshot() if frontend is not None else None,
                ]
            )
            if spec.telemetry:
                summary.telemetry = snapshot
            self._export_telemetry(
                spec,
                summary,
                snapshot,
                engine.loop.batches,
                admission_records=(
                    frontend.admission_records() if frontend is not None else ()
                ),
                arrivals_ms=client_arrivals_ms,
            )
            return summary

    def _build_frontend(self, spec: RunSpec) -> Optional["ServingFrontEnd"]:
        """Assemble a serving front-end over this simulator's layout."""
        if spec.service is None:
            return None
        from repro.service.frontend import ServingFrontEnd

        return ServingFrontEnd(
            spec.service,
            self._layout,
            self.config.cost,
            series_window_ms=spec.series_window_ms,
        )

    def _summarise(
        self,
        engine: LifeRaftEngine,
        policy: SchedulingPolicy,
        alpha: float,
        label: str,
        saturation_qps: Optional[float],
    ) -> SimulationResult:
        report = engine.report()
        response_s = [ms / 1000.0 for ms in report.response_times_ms.values()]
        effective_alpha = getattr(policy, "alpha", None)
        summary = SimulationResult(
            policy_name=policy.name,
            alpha=effective_alpha,
            submitted_queries=report.submitted_queries,
            completed_queries=report.completed_queries,
            makespan_s=report.makespan_ms / 1000.0,
            busy_time_s=report.busy_time_ms / 1000.0,
            throughput_qps=report.throughput_qps,
            response_stats=summarize_response_times(response_s),
            cache_hit_rate=report.cache_hit_rate,
            bucket_services=report.bucket_services,
            bucket_reads=engine.store.reads,
            strategy_counts=report.strategy_counts,
            total_io_s=report.total_io_ms / 1000.0,
            total_match_s=report.total_match_ms / 1000.0,
            saturation_qps=saturation_qps,
            label=label or policy.name,
        )
        _stamp_digest(summary, report.response_times_ms)
        return summary

    def _execute_parallel(
        self, queries: Sequence[CrossMatchQuery], spec: RunSpec
    ) -> SimulationResult:
        """Replay a trace against a sharded engine on an execution backend.

        :attr:`RunSpec.effective_backend` selects where the shard workers
        run: ``"virtual"`` keeps every shard inside this process;
        ``"process"`` runs each shard in its own OS process for real
        hardware parallelism.  One coordinator drives both, so
        virtual-clock results are backend-invariant, steals included
        (the parity tests pin this down); only
        :attr:`SimulationResult.real_elapsed_s` differs.  ``workers=1``
        reproduces the serial engine exactly on either backend.

        With :attr:`RunSpec.service` set, the same serving front-end as
        the serial path gates the trace first; the backends replay the
        admitted schedule and their service records — which rode the IPC
        channel on the process backend — feed the result streams.
        Because admission is a pure function of the arrival stream, the
        admitted schedule (and therefore every chunk) is identical
        across backends.

        :attr:`RunSpec.store_path` behaves as in the serial path.  On the
        process backend a file-backed store ships as a small path-based
        snapshot: each worker child reopens the file read-only and
        performs its own physical I/O instead of unpickling the catalog.

        With :attr:`RunSpec.reliability` set, the run checkpoints
        per-shard state at window barriers under the configured cadence,
        injects the configured crash plan (really killing worker
        processes on the process backend), and recovers dead shards from
        their latest checkpoint.  Virtual-clock results of a
        crash-injected run are identical to an uninterrupted one (the
        reliability parity tests pin this down with stealing off); the
        returned result carries the
        :class:`~repro.reliability.config.ReliabilityReport` in
        :attr:`SimulationResult.reliability`.
        """
        from repro.parallel.backend import ParallelRunSpec, make_backend

        policy = spec.policy
        if isinstance(policy, str):
            policy = make_policy(policy, alpha=spec.alpha, cost=self.config.cost)
        client_arrivals_ms = {q.query_id: q.arrival_time_s * 1000.0 for q in queries}
        frontend = self._build_frontend(spec)
        if frontend is not None:
            queries = frontend.admit(queries).admitted_queries()
        execution = make_backend(spec.effective_backend)
        with self._build_store(spec.store_path) as store:
            plan = ParallelRunSpec(
                layout=self._layout,
                store=store,
                queries=tuple(queries),
                policy=policy,
                config=self._engine_config(spec),
                workers=spec.workers,
                shard_strategy=spec.shard_strategy,
                index=SpatialIndex([], rows=None, disk=None),
                enable_stealing=spec.enable_stealing,
                steal_quantum_ms=spec.steal_quantum_ms,
                reliability=spec.reliability,
            )
            outcome = execution.execute(plan)
        if frontend is not None:
            frontend.ingest_records(outcome.services)
        report = outcome.report
        response_s = [ms / 1000.0 for ms in report.response_times_ms.values()]
        effective_alpha = getattr(policy, "alpha", None)
        serving_report = frontend.report() if frontend is not None else None
        summary = SimulationResult(
            policy_name=report.scheduler_name,
            alpha=effective_alpha,
            submitted_queries=report.submitted_queries,
            completed_queries=report.completed_queries,
            makespan_s=report.makespan_ms / 1000.0,
            busy_time_s=report.busy_time_ms / 1000.0,
            throughput_qps=report.throughput_qps,
            response_stats=summarize_response_times(response_s),
            cache_hit_rate=report.cache_hit_rate,
            bucket_services=report.bucket_services,
            bucket_reads=outcome.bucket_reads,
            strategy_counts=report.strategy_counts,
            total_io_s=report.total_io_ms / 1000.0,
            total_match_s=report.total_match_ms / 1000.0,
            saturation_qps=spec.saturation_qps,
            label=spec.label or f"{policy.name} x{spec.workers}",
            workers=spec.workers,
            steals=outcome.parallel.steals,
            wall_clock_s=outcome.parallel.wall_clock_ms / 1000.0,
            backend=outcome.backend,
            real_elapsed_s=outcome.real_elapsed_s,
            serving=serving_report,
            store_backend="file" if isinstance(store, DiskBucketStore) else "memory",
            real_read_s=outcome.store_real_read_s,
            reliability=outcome.reliability,
        )
        _stamp_digest(summary, report.response_times_ms)
        snapshot = merge_snapshots(
            [outcome.telemetry]
            + ([frontend.telemetry.snapshot()] if frontend is not None else [])
        )
        if spec.telemetry:
            summary.telemetry = snapshot
        self._export_telemetry(
            spec,
            summary,
            snapshot,
            outcome.services,
            steal_records=outcome.steal_records,
            window_boundaries_ms=outcome.window_boundaries_ms,
            reliability=outcome.reliability,
            admission_records=(
                frontend.admission_records() if frontend is not None else ()
            ),
            arrivals_ms=client_arrivals_ms,
        )
        return summary

    @staticmethod
    def _export_telemetry(
        spec: RunSpec,
        result: SimulationResult,
        snapshot: dict,
        services,
        steal_records=(),
        window_boundaries_ms=(),
        reliability=None,
        admission_records=(),
        arrivals_ms=None,
    ) -> None:
        """Assemble the cost ledger and write export files when asked to.

        Everything here runs after the digest is stamped, so it can never
        perturb the deterministic outcome (the zero-perturbation tests
        compare digests with ledger/exports on and off).
        """
        if spec.telemetry or spec.archive_out:
            ledger = build_run_ledger(
                services,
                admission_records=admission_records,
                steal_records=steal_records,
                arrivals_ms=arrivals_ms,
            )
            if spec.telemetry:
                result.ledger = ledger
        else:
            ledger = None
        if spec.metrics_out:
            with open(spec.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(snapshot_to_json(snapshot))
        if spec.trace_out:
            trace = build_chrome_trace(
                services,
                steal_records=steal_records,
                window_boundaries_ms=window_boundaries_ms,
                reliability=reliability,
                label=result.label,
                backend=result.backend,
                admission_records=admission_records,
                include_query_flows=True,
            )
            write_chrome_trace(spec.trace_out, trace)
        if spec.archive_out:
            from repro.telemetry.archive import (
                RunArchive,
                describe_run_spec,
                summarise_result,
                write_run_archive,
            )

            write_run_archive(
                spec.archive_out,
                RunArchive(
                    spec=describe_run_spec(spec),
                    result=summarise_result(result),
                    telemetry=snapshot,
                    ledger=ledger,
                ),
            )
