"""Per-layer metrics: the traced pass, differential passes and isolated probes.

Layer names are the packages/modules of ``src/repro``.  Every name in
:data:`LAYER_UNITS` is reported on every workload; a layer the workload
does not exercise reads 0.  Times here are raw wall seconds of this box
(not host-speed normalised): they are for attributing a pass to layers,
and carry no regression bound.

Serial workloads are traced from the benchmark's own proxies
(:mod:`benchmarks.e2e.tracing`).  Process workloads get their numbers
from outside: ``SimulationResult`` / ``ReliabilityReport`` fields,
``RUSAGE_CHILDREN`` and differential passes (process − virtual at equal
digest, crash − clean, serve − bare admitted stream).
"""

from __future__ import annotations

import os
import pickle
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.tracing import SpanRecorder, SpanTotals, TracedPass, traced_serial_pass
from benchmarks.e2e.workloads import Prepared, Workload
from repro.core.baselines import make_policy
from repro.core.bucket_cache import BucketCacheManager
from repro.core.workload_manager import WorkloadManager
from repro.parallel.ipc import BatchRecord
from repro.sim.runspec import RunSpec
from repro.storage.bucket_store import BucketStore
from repro.telemetry.archive import (
    RunArchive,
    describe_run_spec,
    summarise_result,
    write_run_archive,
)
from repro.telemetry.registry import metric_value, snapshot_to_json
from repro.telemetry.spans import build_chrome_trace

#: Every per-layer metric and its unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "core.scheduler.next_work_s": "s",
    "core.scheduler.decisions": "count",
    "core.scheduler.decision_us_p50": "us",
    "core.scheduler.decision_us_p99": "us",
    "core.scheduler.pending_buckets_mean": "count",
    "core.scheduler.us_per_pending_bucket": "us",
    "core.scheduler.probe_us_at_256": "us",
    "core.scheduler.probe_us_at_1024": "us",
    "core.scheduler.probe_us_at_4096": "us",
    "core.workload_manager.add_query_s": "s",
    "core.workload_manager.drain_s": "s",
    "core.workload_manager.entries_enqueued": "count",
    "core.engine.services": "count",
    "core.engine.service_us_p50": "us",
    "core.engine.service_us_p99": "us",
    "core.engine.self_s": "s",
    "core.kernels.evaluate_s": "s",
    "core.kernels.objects_processed": "count",
    "core.kernels.objects_per_s": "1/s",
    "core.kernels.matches": "count",
    "core.preprocessor.assign_s": "s",
    "core.preprocessor.us_per_object": "us",
    "core.bucket_cache.hits": "count",
    "core.bucket_cache.misses": "count",
    "core.bucket_cache.hit_rate": "ratio",
    "core.bucket_cache.load_s": "s",
    "storage.page_reads": "count",
    "storage.bytes_read": "B",
    "storage.read_s": "s",
    "storage.read_mb_per_s": "MB/s",
    "storage.tier2_hit_rate": "ratio",
    "storage.open_s": "s",
    "storage.ingest_s": "s",
    "storage.ingest_rows_per_s": "1/s",
    "storage.file_bytes_per_row": "B",
    "parallel.virtual_pass_s": "s",
    "parallel.seam_s": "s",
    "parallel.windows": "count",
    "parallel.seam_ms_per_window": "ms",
    "parallel.spawn_s": "s",
    "parallel.child_import_s": "s",
    "parallel.child_cpu_s": "s",
    "parallel.wall_speedup_2x": "ratio",
    "parallel.ipc.record_pickle_us": "us",
    "parallel.ipc.record_bytes": "B",
    "reliability.checkpoints_written": "count",
    "reliability.checkpoint_bytes": "B",
    "reliability.checkpoint_s": "s",
    "reliability.checkpoint_ms_each": "ms",
    "reliability.recoveries": "count",
    "reliability.services_replayed": "count",
    "reliability.recovery_s": "s",
    "reliability.overhead_s": "s",
    "service.offered": "count",
    "service.admitted": "count",
    "service.rejected_share": "ratio",
    "service.deferrals": "count",
    "service.chunks": "count",
    "service.virtual_ttfr_mean_s": "s",
    "service.admit_s": "s",
    "service.overhead_s": "s",
    "telemetry.export_s": "s",
    "telemetry.ledger_build_s": "s",
    "telemetry.spans_build_s": "s",
    "telemetry.archive_write_s": "s",
    "telemetry.snapshot_bytes": "B",
    "sim.glue_s": "s",
    "sim.speedup_vs_noshare": "ratio",
    "sim.virtual_qps": "1/s",
    "sim.virtual_resp_mean_s": "s",
    "sim.completed_queries": "count",
    "workload.trace_gen_s": "s",
    "workload.capacity_probe_s": "s",
    "catalog.generate_s": "s",
    "htm.cover_us_per_object": "us",
    "trace.overhead_pct": "%",
    "host.slowdown": "ratio",
    "host.raw_pass_s": "s",
}

#: Layer metrics where a larger value is the better one (every other
#: metric is a cost or a neutral count: lower).
HIGHER_IS_BETTER = frozenset(
    {
        "core.kernels.objects_per_s",
        "core.bucket_cache.hits",
        "core.bucket_cache.hit_rate",
        "storage.read_mb_per_s",
        "storage.tier2_hit_rate",
        "storage.ingest_rows_per_s",
        "parallel.wall_speedup_2x",
        "service.admitted",
        "sim.speedup_vs_noshare",
        "sim.virtual_qps",
        "sim.completed_queries",
    }
)

#: Layer metrics that are virtual-domain or pure counts: for one seed they
#: must repeat exactly, run after run and commit after commit (a change
#: meant only to speed up the simulator leaves every one bit-identical).
EXACT_LAYER_METRICS = frozenset(
    {
        "core.scheduler.decisions",
        "core.scheduler.pending_buckets_mean",
        "core.workload_manager.entries_enqueued",
        "core.engine.services",
        "core.kernels.objects_processed",
        "core.kernels.matches",
        "core.bucket_cache.hits",
        "core.bucket_cache.misses",
        "core.bucket_cache.hit_rate",
        "reliability.checkpoints_written",
        "reliability.recoveries",
        "reliability.services_replayed",
        "service.offered",
        "service.admitted",
        "service.rejected_share",
        "service.deferrals",
        "service.chunks",
        "service.virtual_ttfr_mean_s",
        "sim.speedup_vs_noshare",
        "sim.virtual_qps",
        "sim.virtual_resp_mean_s",
        "sim.completed_queries",
    }
)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def _best_s(
    call: Callable[[], object], repeats: int, known_s: Optional[float] = None
) -> Tuple[object, float]:
    """Fastest of *repeats* timings of *call* (one-sided noise: take the floor).

    *known_s* is a timing of the same call taken earlier; it stands in for
    one repeat.
    """
    best = float("inf")
    if known_s is not None:
        best = known_s
        repeats -= 1
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = call()
        best = min(best, time.perf_counter() - started)
    return value, best


def scheduler_probe_us(prepared: Prepared, pending: int, repeats: int) -> float:
    """Median µs of an isolated ``next_work`` over *pending* one-entry queues."""
    simulator = prepared.simulator
    policy = make_policy("liferaft", alpha=0.25, cost=simulator.config.cost)
    manager = WorkloadManager()
    cache = BucketCacheManager(BucketStore(simulator.layout), simulator.config.cache_buckets)
    for bucket in range(pending):
        manager.add_query(bucket, {bucket: 100 + bucket % 7}, float(bucket))
    now_ms = float(pending) + 1_000.0
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        policy.next_work(manager, cache, now_ms)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def _batch_records(traced: TracedPass, limit: int) -> List[BatchRecord]:
    """The first *limit* bucket services of a finished run, as IPC records."""
    return [
        BatchRecord(
            worker_id=0,
            seq=seq,
            bucket_index=batch.work_item.bucket_index,
            queries_served=batch.queries_served,
            started_at_ms=batch.started_at_ms,
            finished_at_ms=batch.finished_at_ms,
            objects_served=batch.objects_served,
            io_ms=batch.io_ms,
            match_ms=batch.match_ms,
        )
        for seq, batch in enumerate(traced.engine.loop.batches[:limit])
    ]


def _span(totals: Dict[str, SpanTotals], name: str) -> SpanTotals:
    return totals.get(name) or SpanTotals()


def _traced_layers(traced: TracedPass, prepared: Prepared, out: Dict[str, float]) -> None:
    """Layer numbers read off one traced serial pass."""
    totals = traced.totals
    decide = _span(totals, "core.scheduler.next_work")
    decisions = sorted(decide.durations_s)
    pending_total = sum(traced.pending_counts)
    out["core.scheduler.next_work_s"] = decide.total_s
    out["core.scheduler.decisions"] = decide.count
    out["core.scheduler.decision_us_p50"] = _percentile(decisions, 0.50) * 1e6
    out["core.scheduler.decision_us_p99"] = _percentile(decisions, 0.99) * 1e6
    if traced.pending_counts:
        out["core.scheduler.pending_buckets_mean"] = pending_total / len(traced.pending_counts)
    if pending_total:
        out["core.scheduler.us_per_pending_bucket"] = decide.total_s / pending_total * 1e6

    batches = traced.engine.loop.batches
    out["core.workload_manager.add_query_s"] = _span(
        totals, "core.workload_manager.add_query"
    ).total_s
    out["core.workload_manager.drain_s"] = _span(
        totals, "core.workload_manager.drain_bucket"
    ).total_s
    out["core.workload_manager.entries_enqueued"] = sum(
        len(batch.queries_served) for batch in batches
    )

    service = _span(totals, "core.engine.service")
    services = sorted(service.durations_s)
    out["core.engine.services"] = service.count
    out["core.engine.service_us_p50"] = _percentile(services, 0.50) * 1e6
    out["core.engine.service_us_p99"] = _percentile(services, 0.99) * 1e6
    out["core.engine.self_s"] = service.self_s

    evaluate = _span(totals, "core.kernels.evaluate")
    objects = sum(batch.join.objects_processed for batch in batches)
    out["core.kernels.evaluate_s"] = evaluate.self_s
    out["core.kernels.objects_processed"] = objects
    if evaluate.self_s > 0:
        out["core.kernels.objects_per_s"] = objects / evaluate.self_s
    out["core.kernels.matches"] = traced.engine.loop.total_matches

    assign = _span(totals, "core.preprocessor.assign")
    shipped = sum(query.object_count for query in prepared.queries)
    out["core.preprocessor.assign_s"] = assign.total_s
    if shipped:
        out["core.preprocessor.us_per_object"] = assign.total_s / shipped * 1e6

    cache = traced.engine.cache.statistics()
    out["core.bucket_cache.hits"] = cache.get("hits", 0)
    out["core.bucket_cache.misses"] = cache.get("misses", 0)
    out["core.bucket_cache.hit_rate"] = traced.engine.cache.hit_rate
    out["core.bucket_cache.load_s"] = _span(totals, "core.bucket_cache.load").self_s

    out["storage.read_s"] = _span(totals, "storage.read_bucket").total_s
    out["storage.open_s"] = _span(totals, "storage.open").total_s
    if traced.disk is not None:
        page_reads, _real_read_s, tier2_hit_rate = traced.disk
        page_bytes = prepared.setup_counts["file_bytes"] / len(prepared.simulator.layout)
        out["storage.page_reads"] = page_reads
        out["storage.bytes_read"] = page_reads * page_bytes
        out["storage.tier2_hit_rate"] = tier2_hit_rate
        if out["storage.read_s"] > 0:
            out["storage.read_mb_per_s"] = page_reads * page_bytes / 1e6 / out["storage.read_s"]

    out["service.admit_s"] = _span(totals, "service.admit").total_s
    out["telemetry.ledger_build_s"] = _span(totals, "telemetry.ledger_build").total_s
    out["sim.glue_s"] = _span(totals, "sim.pass").self_s


def _setup_layers(prepared: Prepared, out: Dict[str, float]) -> None:
    """Set-up steps: what ``setup_s`` is made of."""
    for key in ("workload.trace_gen_s", "workload.capacity_probe_s", "catalog.generate_s"):
        out[key] = prepared.setup_s.get(key, 0.0)
    ingest_s = prepared.setup_s.get("storage.ingest_s", 0.0)
    rows = prepared.setup_counts.get("rows", 0)
    out["storage.ingest_s"] = ingest_s
    if ingest_s > 0 and rows:
        out["storage.ingest_rows_per_s"] = rows / ingest_s
        out["storage.file_bytes_per_row"] = prepared.setup_counts["file_bytes"] / rows
    covered = prepared.setup_counts.get("objects_covered", 0)
    if covered:
        out["htm.cover_us_per_object"] = prepared.setup_s["htm.cover_s"] / covered * 1e6


def _telemetry_layers(
    prepared: Prepared,
    result,
    traced: TracedPass,
    scratch: str,
    out: Dict[str, float],
) -> None:
    """What observing a run costs: snapshot + ledger, span build, archive."""
    # What ``telemetry=True`` adds to a pass, timed directly in the traced
    # pass (a pass-minus-pass difference of this size drowns in host noise).
    out["telemetry.export_s"] = (
        traced.totals["telemetry.snapshot"].total_s
        + traced.totals["telemetry.ledger_build"].total_s
    )
    _, out["telemetry.spans_build_s"] = _best_s(
        lambda: build_chrome_trace(
            traced.engine.loop.batches,
            label=result.label,
            backend=result.backend,
            admission_records=(
                traced.frontend.admission_records() if traced.frontend is not None else ()
            ),
            include_query_flows=True,
        ),
        1,
    )
    archive = RunArchive(
        spec=describe_run_spec(prepared.spec),
        result=summarise_result(result),
        telemetry=result.telemetry,
        ledger=result.ledger,
    )
    path = os.path.join(scratch, "probe.lrrun")
    _, out["telemetry.archive_write_s"] = _best_s(lambda: write_run_archive(path, archive), 1)
    os.remove(path)
    out["telemetry.snapshot_bytes"] = len(snapshot_to_json(result.telemetry))


def _child_import_s(repeats: int) -> float:
    """Wall seconds for a fresh interpreter to import the worker's modules."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    _, best = _best_s(
        lambda: subprocess.run(
            [sys.executable, "-c", "import repro.parallel.ipc"], env=env, check=True, timeout=60
        ),
        repeats,
    )
    return best


def _process_layers(
    prepared: Prepared,
    result,
    run: Callable[[RunSpec], object],
    pass_s: float,
    reference_s: Optional[float],
    repeats: int,
    recorder: SpanRecorder,
    out: Dict[str, float],
) -> None:
    """The process seam, measured from outside the workers.

    *reference_s* is the harness's timing of the parity reference: the
    virtual x2 pass for ``shards_process``, the clean process pass for
    ``recovery_crash``.
    """
    spec = prepared.spec
    clean = replace(spec, reliability=None)
    virtual = replace(clean, backend="virtual")
    clean_s = pass_s
    if spec.reliability is not None:
        _, clean_s = _best_s(lambda: run(clean), repeats, reference_s)
        out["reliability.overhead_s"] = pass_s - clean_s
        reference_s = None
    _, virtual_s = _best_s(lambda: run(virtual), repeats, reference_s)
    out["parallel.virtual_pass_s"] = virtual_s
    out["parallel.seam_s"] = clean_s - virtual_s
    windows = metric_value(result.telemetry, "coordinator.windows") or 1
    if result.reliability is not None:
        windows = result.reliability.windows or 1
    out["parallel.windows"] = windows
    out["parallel.seam_ms_per_window"] = out["parallel.seam_s"] / windows * 1e3

    single = list(prepared.queries[:1])
    _, out["parallel.spawn_s"] = _best_s(
        lambda: prepared.simulator.execute(single, clean), repeats
    )
    out["parallel.child_import_s"] = _child_import_s(repeats)

    serial_spec = RunSpec(policy=spec.policy, alpha=spec.alpha, saturation_qps=spec.saturation_qps)
    _, serial_s = _best_s(lambda: run(serial_spec), repeats)
    out["parallel.wall_speedup_2x"] = serial_s / clean_s

    # Pickle round trip of up to 1,000 service records of the same trace.
    traced = traced_serial_pass(prepared.simulator, prepared.queries, serial_spec, recorder)
    records = _batch_records(traced, 1_000)
    if records:
        payload = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        _, round_trip_s = _best_s(
            lambda: pickle.loads(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)), 5
        )
        out["parallel.ipc.record_pickle_us"] = round_trip_s / len(records) * 1e6
        out["parallel.ipc.record_bytes"] = len(payload) / len(records)

    report = result.reliability
    if report is not None:
        out["reliability.checkpoints_written"] = report.checkpoints_written
        out["reliability.checkpoint_bytes"] = report.checkpoint_bytes
        out["reliability.checkpoint_s"] = report.checkpoint_real_s
        if report.checkpoints_written:
            out["reliability.checkpoint_ms_each"] = (
                report.checkpoint_real_s / report.checkpoints_written * 1e3
            )
        out["reliability.recoveries"] = report.recovery_count
        out["reliability.services_replayed"] = report.services_replayed
        out["reliability.recovery_s"] = report.recovery_real_s


def collect(
    workload: Workload,
    prepared: Prepared,
    result,
    passes: Sequence,
    setups: Sequence,
    gate,
    reference_s: Optional[float],
    run: Callable[[RunSpec], object],
    scratch: str,
    smoke: bool,
) -> Tuple[Dict[str, float], dict]:
    """Every per-layer metric of one workload, plus the Chrome-trace spans.

    *run* executes the prepared queries under a given spec (the harness's
    time-limited ``Simulator.execute`` call).
    """
    out: Dict[str, float] = dict.fromkeys(LAYER_UNITS, 0.0)
    repeats = 1 if smoke else 2
    recorder = SpanRecorder()
    # One-sided noise: compare floors with floors.
    pass_s = min(sample.raw_s for sample in passes)

    out["host.raw_pass_s"] = statistics.median(sample.raw_s for sample in passes)
    out["parallel.child_cpu_s"] = statistics.median(sample.child_cpu_s for sample in passes)
    out["host.slowdown"] = statistics.median(
        sample.slowdown for sample in list(passes) + list(setups)
    )
    out["sim.virtual_qps"] = result.throughput_qps
    out["sim.virtual_resp_mean_s"] = result.avg_response_time_s
    out["sim.completed_queries"] = result.completed_queries
    _setup_layers(prepared, out)

    if workload.serial:
        traced: Optional[TracedPass] = None
        for pass_id in range(repeats):
            recorder.pass_id = pass_id
            candidate = traced_serial_pass(
                prepared.simulator, prepared.queries, prepared.spec, recorder
            )
            gate.check_equal(
                f"traced pass {pass_id + 1} == untraced", candidate.digest, gate.digest
            )
            if traced is None or candidate.wall_s < traced.wall_s:
                traced = candidate
        _traced_layers(traced, prepared, out)
        out["trace.overhead_pct"] = (traced.wall_s - pass_s) / pass_s * 100.0
        _telemetry_layers(prepared, result, traced, scratch, out)
        if "scheduler" in workload.probes:
            for pending in (256, 1_024, 4_096):
                out[f"core.scheduler.probe_us_at_{pending}"] = scheduler_probe_us(
                    prepared, pending, 5 if smoke else 25
                )
        if "speedup_vs_noshare" in workload.probes:
            greedy = run(replace(prepared.spec, alpha=0.0, telemetry=False))
            noshare = run(replace(prepared.spec, policy="noshare", telemetry=False))
            out["sim.speedup_vs_noshare"] = greedy.throughput_qps / noshare.throughput_qps
        serving = result.serving
        if serving is not None:
            out["service.offered"] = serving.offered
            out["service.admitted"] = serving.admitted
            out["service.rejected_share"] = serving.rejection_rate
            out["service.deferrals"] = serving.deferrals
            out["service.chunks"] = serving.chunks
            out["service.virtual_ttfr_mean_s"] = serving.avg_time_to_first_result_s
            admitted = traced.frontend.intake.admitted_queries()
            bare = replace(prepared.spec, service=None)
            _, bare_s = _best_s(
                lambda: prepared.simulator.execute(admitted, bare), repeats
            )
            out["service.overhead_s"] = pass_s - bare_s
    else:
        _process_layers(prepared, result, run, pass_s, reference_s, repeats, recorder, out)
    return out, recorder.to_chrome_trace()
