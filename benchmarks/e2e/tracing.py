"""Span recording for the traced pass — everything here lives in the benchmark.

The traced pass re-assembles the serial engine from the same public
objects :meth:`repro.sim.simulator.Simulator.execute` uses, with timing
proxies around the calls into each layer (``next_work``, ``add_query``,
``drain_bucket``, ``evaluate``, ``cache.load``, ``store.read_bucket``,
``preprocessor.assign``), and drives ``submit`` / ``process_next`` itself,
mirroring ``Simulator._execute_serial``.  No switch or hook is added to
``src/``; measured passes never import this module's proxies.

A span is ``[name, start_s, end_s, parent_index, pass_id]``; spans are kept
in memory and written out (Chrome-trace JSON, loadable in Perfetto) only
when the run ends.  A layer's *self* time is its span minus the part its
child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.baselines import make_policy
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.sim.runspec import DEFAULT_STORE, RunSpec
from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.index import SpatialIndex
from repro.telemetry.ledger import build_run_ledger
from repro.telemetry.registry import merge_snapshots
from repro.workload.query import CrossMatchQuery
from repro.workload.trace_io import run_digest

#: Arrival-delivery slack of the serial replay loop (same constant as
#: ``Simulator._execute_serial``).
_ARRIVAL_EPS_MS = 1e-9


class SpanRecorder:
    """In-memory span log with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.pass_id = 0
        self._stack: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def timed(self, call: Callable, name: str) -> Callable:
        """*call* wrapped in a span called *name*."""

        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def to_chrome_trace(self) -> dict:
        """The span log as Chrome-trace "X" events (µs since the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": pass_id,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent, pass_id) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass
class SpanTotals:
    """Per-name aggregate of one pass's spans."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: List[float] = field(default_factory=list)


def aggregate(spans: Sequence[Sequence], pass_id: int) -> Dict[str, SpanTotals]:
    """Totals, self times and durations by span name for one pass."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, owner in spans:
        if owner == pass_id and parent >= 0:
            child_s[parent] += end - start
    totals: Dict[str, SpanTotals] = {}
    for index, (name, start, end, _parent, owner) in enumerate(spans):
        if owner != pass_id:
            continue
        entry = totals.setdefault(name, SpanTotals())
        duration = end - start
        entry.count += 1
        entry.total_s += duration
        entry.self_s += duration - child_s[index]
        entry.durations_s.append(duration)
    return totals


class TimedProxy:
    """Delegates to *target*, recording a span around each named method."""

    def __init__(self, target: object, recorder: SpanRecorder, spans: Mapping[str, str]) -> None:
        self._target = target
        for method, span_name in spans.items():
            setattr(self, method, recorder.timed(getattr(target, method), span_name))

    def __getattr__(self, name: str):
        # Reached only for attributes the proxy does not define itself.
        return getattr(self._target, name)


class TracedPolicy(TimedProxy):
    """Scheduler proxy: times ``next_work`` and logs the pending-bucket count.

    Counting pending buckets is O(pending) work the engine does not do, so
    it gets a ``harness.*`` span of its own and never inflates a layer.
    """

    def __init__(self, target: object, recorder: SpanRecorder) -> None:
        super().__init__(target, recorder, {})
        self.pending_counts: List[int] = []
        decide = recorder.timed(target.next_work, "core.scheduler.next_work")
        count = recorder.timed(lambda manager: len(manager.pending_buckets()), "harness.count")

        def next_work(manager, cache, now_ms):
            self.pending_counts.append(count(manager))
            return decide(manager, cache, now_ms)

        self.next_work = next_work


@dataclass
class TracedPass:
    """What one traced serial pass produced."""

    digest: str
    completed: int
    admitted: int
    wall_s: float
    totals: Dict[str, SpanTotals]
    pending_counts: List[int]
    engine: LifeRaftEngine
    #: ``(page_reads, real_read_s, tier-2 hit rate)`` of a file-backed store.
    disk: Optional[tuple]
    frontend: object
    ledger: dict
    snapshot: dict


def build_store(simulator: Simulator, spec: RunSpec) -> BucketStore:
    """The store ``Simulator.execute`` would open for *spec*."""
    config = simulator.config
    disk = calibrated_disk_for_bucket_read(config.bucket_megabytes, config.cost.tb_ms / 1000.0)
    path = simulator.store_path if spec.store_path is DEFAULT_STORE else spec.store_path
    if path is None:
        return BucketStore(simulator.layout, disk)
    if config.page_cache_buckets is None:
        return open_disk_store(path, disk)
    return open_disk_store(path, disk, page_cache_buckets=config.page_cache_buckets)


def engine_config(simulator: Simulator, spec: RunSpec) -> EngineConfig:
    """The engine tunables ``Simulator.execute`` derives for *spec*."""
    config = simulator.config
    return EngineConfig(
        cache_buckets=config.cache_buckets,
        cost=config.cost,
        hybrid_threshold_fraction=config.hybrid_threshold_fraction,
        enable_hybrid=config.enable_hybrid,
        match_probability=config.match_probability,
        series_window_ms=spec.series_window_ms,
    )


def result_digest(engine: LifeRaftEngine) -> str:
    """The ``SimulationResult.result_digest`` of what *engine* has done."""
    report = engine.report()
    fields = {
        "completed_queries": report.completed_queries,
        "busy_time_s": report.busy_time_ms / 1000.0,
        "total_io_s": report.total_io_ms / 1000.0,
        "total_match_s": report.total_match_ms / 1000.0,
        "bucket_services": report.bucket_services,
        "bucket_reads": engine.store.reads,
        "cache_hit_rate": report.cache_hit_rate,
        "throughput_qps": report.throughput_qps,
    }
    return run_digest(
        report.response_times_ms,
        [float(fields[name]) for name in VIRTUAL_CLOCK_PARITY_FIELDS],
    )


def traced_serial_pass(
    simulator: Simulator,
    queries: Sequence[CrossMatchQuery],
    spec: RunSpec,
    recorder: SpanRecorder,
) -> TracedPass:
    """One serial pass of *spec* with a span at every layer boundary."""
    recorder.begin("sim.pass")
    started = time.perf_counter()
    cost = simulator.config.cost
    policy = spec.policy
    if isinstance(policy, str):
        policy = make_policy(policy, alpha=spec.alpha, cost=cost)
    traced_policy = TracedPolicy(policy, recorder)
    client_arrivals_ms = {q.query_id: q.arrival_time_s * 1000.0 for q in queries}
    frontend = None
    if spec.service is not None:
        from repro.service.frontend import ServingFrontEnd

        frontend = ServingFrontEnd(
            spec.service, simulator.layout, cost, series_window_ms=spec.series_window_ms
        )
        admit = recorder.timed(frontend.admit, "service.admit")
        queries = admit(queries).admitted_queries()
    store = recorder.timed(build_store, "storage.open")(simulator, spec)
    try:
        engine = LifeRaftEngine(
            simulator.layout,
            TimedProxy(store, recorder, {"read_bucket": "storage.read_bucket"}),
            scheduler=traced_policy,
            index=SpatialIndex([], rows=None, disk=None),
            config=engine_config(simulator, spec),
        )
        loop = engine.loop
        engine.preprocessor = TimedProxy(
            engine.preprocessor, recorder, {"assign": "core.preprocessor.assign"}
        )
        engine.manager = loop.manager = TimedProxy(
            engine.manager,
            recorder,
            {
                "add_query": "core.workload_manager.add_query",
                "drain_bucket": "core.workload_manager.drain_bucket",
            },
        )
        engine.cache = loop.cache = engine.evaluator.cache = TimedProxy(
            engine.cache, recorder, {"load": "core.bucket_cache.load"}
        )
        engine.evaluator = loop.evaluator = TimedProxy(
            engine.evaluator, recorder, {"evaluate": "core.kernels.evaluate"}
        )
        submit = recorder.timed(engine.submit, "core.engine.submit")
        service = recorder.timed(engine.process_next, "core.engine.service")
        on_batch = (
            recorder.timed(frontend.on_batch, "service.on_batch") if frontend is not None else None
        )

        ordered = sorted(queries, key=lambda q: (q.arrival_time_s, q.query_id))
        arrivals_ms = [q.arrival_time_s * 1000.0 for q in ordered]
        index = 0
        total = len(ordered)
        now_ms = arrivals_ms[0] if ordered else 0.0
        while index < total or engine.has_pending_work():
            if not engine.has_pending_work() and index < total:
                now_ms = max(now_ms, arrivals_ms[index])
            while index < total and arrivals_ms[index] <= now_ms + _ARRIVAL_EPS_MS:
                submit(ordered[index], now_ms=arrivals_ms[index])
                index += 1
            if not engine.has_pending_work():
                continue
            batch = service(now_ms)
            if batch is None:
                break
            if on_batch is not None:
                on_batch(batch)
            now_ms = batch.finished_at_ms

        digest = recorder.timed(result_digest, "sim.summarise")(engine)
        snapshot = recorder.timed(merge_snapshots, "telemetry.snapshot")(
            [
                loop.telemetry.snapshot(),
                store.telemetry.snapshot() if hasattr(store, "telemetry") else None,
                frontend.telemetry.snapshot() if frontend is not None else None,
            ]
        )
        ledger = recorder.timed(build_run_ledger, "telemetry.ledger_build")(
            loop.batches,
            admission_records=frontend.admission_records() if frontend is not None else (),
            arrivals_ms=client_arrivals_ms,
        )
        disk = None
        if hasattr(store, "page_reads"):
            disk = (store.page_reads, store.real_read_s, store.page_cache.hit_rate)
    finally:
        store.close()
    wall_s = time.perf_counter() - started
    recorder.end()
    return TracedPass(
        digest=digest,
        completed=engine.manager.completed_count(),
        admitted=total,
        wall_s=wall_s,
        totals=aggregate(recorder.spans, recorder.pass_id),
        pending_counts=traced_policy.pending_counts,
        engine=engine,
        disk=disk,
        frontend=frontend,
        ledger=ledger,
        snapshot=snapshot,
    )
