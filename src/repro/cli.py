"""Command-line interface: run experiments and inspect traces.

Examples
--------
Run the whole experiment suite at the default scale::

    liferaft experiments --scale default

Run only the headline scheduling comparison and the cache study::

    liferaft experiments figure7 cache_hits --scale small

Run the worker-scaling experiment, sweeping 1..8 parallel workers::

    liferaft experiments scaling --scale small --workers 8

Measure real wall-clock speedup with one OS process per shard worker::

    liferaft experiments scaling --scale small --workers 4 --backend process

Serve a trace through the front-end with admission control and print the
intake, latency and SLA summary::

    liferaft serve --scale small --admission reject --intake-bound 48 \
        --deadline-mix interactive=0.3,standard=0.5,batch=0.2

Materialise the small scale's partition as a columnar on-disk bucket
store, then replay against it (real seeks, reads and decoding; identical
virtual-clock numbers) and verify file/memory parity in one shot::

    liferaft ingest --scale small --out /tmp/small.lrbs
    liferaft run --scale small --store-path /tmp/small.lrbs \
        --verify-against-memory

Kill shard worker 1 during window 1 of a two-worker run (a real SIGKILL
on the process backend), recover it from its checkpoint, and verify the
crash-injected run is bit-identical to an uninterrupted one::

    liferaft run --scale small --store-path /tmp/small.lrbs --workers 2 \
        --backend process --inject-crash 1@1 --checkpoint-every windows:2 \
        --verify-recovery

Shrink a three-worker run to two mid-run, then grow back to three — the
departing shard's queues migrate over the stealing seam and the run's
completion set is unchanged::

    liferaft run --scale small --workers 3 --scale-down 1@2 --scale-up 4

Record a run as a ``.lrtr`` trace, then replay it elsewhere and verify
the result digest is bit-identical::

    liferaft run --scale small --record-trace /tmp/run.lrtr
    liferaft replay /tmp/run.lrtr --backend virtual

List the adversarial scenario library, record one as a trace fixture::

    liferaft scenarios
    liferaft scenarios --record hotspot_zone_skew --out /tmp/hotspot.lrtr

Export a run's metrics snapshot and its Perfetto-loadable span timeline
(including per-query causal flows), then pretty-print the metrics::

    liferaft run --scale small --metrics-out /tmp/metrics.json \
        --trace-out /tmp/spans.json
    liferaft inspect /tmp/metrics.json

Render the full run report — metrics, windowed time series, SLA summary
and recovery/scale events — and diff two snapshots metric by metric::

    liferaft report /tmp/metrics.json
    liferaft inspect /tmp/metrics.json --diff /tmp/other-metrics.json

Check the committed per-scenario SLA envelope fixtures (CI runs this),
or re-record them after an intentional behaviour change::

    liferaft envelopes --check
    liferaft envelopes --record hotspot_zone_skew

Print the workload characterisation of a freshly generated trace::

    liferaft trace --scale small
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS, run_all
from repro.experiments.common import SCALES, build_simulator, build_trace, render_table
from repro.fileio import FormatError
from repro.workload.stats import TraceStatistics


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive integers."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="liferaft",
        description="LifeRaft (CIDR 2009) reproduction: experiments and trace tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="run the paper's experiments and print their tables"
    )
    experiments.add_argument(
        "names",
        nargs="*",
        choices=sorted(EXPERIMENTS) + [[]],
        help="experiments to run (default: all)",
    )
    experiments.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="experiment scale (trace and partition size)",
    )
    experiments.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "max parallel workers for the scaling experiment: sweeps powers "
            "of two up to N (experiments without a parallel mode ignore it)"
        ),
    )
    experiments.add_argument(
        "--shard-strategy",
        default=None,
        choices=("round_robin", "zone"),
        help="bucket-to-worker assignment used by the scaling experiment",
    )
    experiments.add_argument(
        "--backend",
        default=None,
        choices=("virtual", "process"),
        help=(
            "execution backend for the scaling experiment: 'virtual' "
            "keeps every shard worker in-process (deterministic), "
            "'process' runs one OS process per shard for real wall-clock "
            "speedup"
        ),
    )
    experiments.add_argument(
        "--store-path",
        default=None,
        metavar="FILE",
        help=(
            "ingested .lrbs bucket store for the scaling experiment: shard "
            "workers read materialised on-disk buckets instead of the "
            "in-memory cost model (see 'liferaft ingest')"
        ),
    )

    trace = subparsers.add_parser("trace", help="generate a trace and print its statistics")
    trace.add_argument("--scale", default="small", choices=sorted(SCALES))
    trace.add_argument("--seed", type=int, default=8675309)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "replay a trace through the serving front-end (admission control, "
            "result streaming, SLA scoring) and print the serving report"
        ),
    )
    serve.add_argument("--scale", default="small", choices=sorted(SCALES))
    serve.add_argument("--seed", type=int, default=8675309)
    serve.add_argument(
        "--alpha", type=float, default=0.25, help="LifeRaft age bias (starvation knob)"
    )
    serve.add_argument(
        "--saturation",
        type=float,
        default=None,
        metavar="QPS",
        help="replay arrival rate (default: the trace's attached arrivals)",
    )
    serve.add_argument(
        "--admission",
        default="admit",
        choices=("admit", "reject", "defer"),
        help="admission policy at the intake gate",
    )
    serve.add_argument(
        "--intake-bound",
        type=_positive_int,
        default=None,
        metavar="N",
        help="max admitted-but-undrained queries before the gate trips",
    )
    serve.add_argument(
        "--max-pending-buckets",
        type=_positive_int,
        default=None,
        metavar="N",
        help="max distinct pending buckets across in-flight admissions",
    )
    serve.add_argument(
        "--max-client-qps",
        type=float,
        default=None,
        metavar="QPS",
        help="per-client offered-rate limit over the trailing minute",
    )
    serve.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        metavar="N",
        help="synthetic client pool size (queries hash onto it)",
    )
    serve.add_argument(
        "--deadline-mix",
        default=None,
        metavar="SPEC",
        help=(
            "deadline class mix as name=weight,... "
            "(classes: interactive, standard, batch)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="shard workers (>1 serves through the parallel engine)",
    )
    serve.add_argument(
        "--backend",
        default=None,
        choices=("virtual", "process"),
        help=(
            "execution backend when serving with multiple workers "
            "(requires --workers > 1; default: virtual)"
        ),
    )
    serve.add_argument(
        "--store-path",
        default=None,
        metavar="FILE",
        help="serve from an ingested .lrbs bucket store (real storage I/O)",
    )
    serve.add_argument(
        "--live-series-window-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "sample live wall-clock occupancy series (open streams, pending "
            "admissions, chunks) every MS real milliseconds; real-domain "
            "telemetry, never parity-asserted"
        ),
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the serving run's merged metrics snapshot (including any "
            "live series) as JSON for 'liferaft inspect'/'liferaft report'"
        ),
    )

    ingest = subparsers.add_parser(
        "ingest",
        help=(
            "materialise a partition layout (or a synthetic sky catalog) as "
            "a columnar on-disk bucket store file"
        ),
    )
    ingest.add_argument("--out", required=True, metavar="FILE", help="store file to write")
    ingest.add_argument("--scale", default="small", choices=sorted(SCALES))
    ingest.add_argument(
        "--bucket-count",
        type=_positive_int,
        default=None,
        metavar="N",
        help="override the scale's bucket count",
    )
    ingest.add_argument(
        "--rows-per-bucket",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "physical rows materialised per bucket (default 512; cost-model "
            "numbers always come from the layout's full object counts)"
        ),
    )
    ingest.add_argument("--seed", type=int, default=8675309)
    ingest.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "processes synthesising and encoding bucket pages in parallel "
            "(single-writer assembly keeps the file byte-identical to a "
            "serial ingest; density ingests only)"
        ),
    )
    ingest.add_argument(
        "--sky-objects",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "instead of materialising the scale's density layout, generate "
            "a synthetic sky of N objects and ingest it exactly (equal-"
            "population partitioning over the generated catalog)"
        ),
    )
    ingest.add_argument(
        "--objects-per-bucket",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bucket population for --sky-objects ingests (default 10,000)",
    )

    run = subparsers.add_parser(
        "run",
        help=(
            "replay one trace under one policy and print the virtual-clock "
            "summary (optionally against an on-disk bucket store)"
        ),
    )
    run.add_argument("--scale", default="small", choices=sorted(SCALES))
    run.add_argument("--seed", type=int, default=8675309)
    run.add_argument("--policy", default="liferaft", help="scheduling policy name")
    run.add_argument(
        "--alpha", type=float, default=0.25, help="LifeRaft age bias (starvation knob)"
    )
    run.add_argument(
        "--saturation",
        type=float,
        default=None,
        metavar="QPS",
        help="replay arrival rate (default: the trace's attached arrivals)",
    )
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="shard workers (>1 runs the parallel engine)",
    )
    run.add_argument(
        "--backend",
        default=None,
        choices=("virtual", "process"),
        help="execution backend when --workers > 1 (default: virtual)",
    )
    run.add_argument(
        "--store-path",
        default=None,
        metavar="FILE",
        help="replay against an ingested .lrbs bucket store (real storage I/O)",
    )
    run.add_argument(
        "--bucket-count",
        type=_positive_int,
        default=None,
        metavar="N",
        help="override the scale's bucket count (in-memory runs only)",
    )
    run.add_argument(
        "--verify-against-memory",
        action="store_true",
        help=(
            "run the same trace twice — file-backed and in-memory — and "
            "fail unless every virtual-clock total is identical "
            "(requires --store-path)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write .lrcp shard checkpoints to DIR (enables the reliability "
            "subsystem; default without --checkpoint-every/--inject-crash: "
            "off).  Omitting DIR while other reliability flags are set uses "
            "a private temporary directory"
        ),
    )
    run.add_argument(
        "--checkpoint-every",
        default=None,
        metavar="CADENCE",
        help=(
            "checkpoint cadence: 'windows:K' (every K window barriers) or "
            "'interval:MS' (every MS of virtual time); default windows:1 "
            "when the reliability subsystem is active"
        ),
    )
    run.add_argument(
        "--inject-crash",
        action="append",
        default=None,
        metavar="W@N",
        help=(
            "deterministically kill shard worker W during window N and "
            "recover it from its latest checkpoint (repeatable, or a comma "
            "list; real SIGKILL on --backend process).  Crash injection "
            "disables work stealing so the recovered run is bit-comparable "
            "to an uninterrupted one"
        ),
    )
    run.add_argument(
        "--checkpoint-window-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "virtual-time window between reliability barriers (default: "
            "the steal quantum, 64 bucket reads)"
        ),
    )
    run.add_argument(
        "--verify-recovery",
        action="store_true",
        help=(
            "after a crash-injected run, replay the same trace without "
            "faults and fail unless every virtual-clock total is identical "
            "(requires --inject-crash)"
        ),
    )
    run.add_argument(
        "--scale-down",
        action="append",
        default=None,
        metavar="W@N",
        help=(
            "planned departure: shard worker W leaves at window barrier N, "
            "migrating every queue to the survivors (repeatable, or a "
            "comma list; enables the reliability subsystem)"
        ),
    )
    run.add_argument(
        "--scale-up",
        action="append",
        default=None,
        metavar="N",
        help=(
            "planned join: one cold shard worker spawns at window barrier "
            "N and acquires work through steal rounds (repeatable, or a "
            "comma list; requires stealing, so it cannot be combined with "
            "--inject-crash)"
        ),
    )
    run.add_argument(
        "--record-trace",
        default=None,
        metavar="FILE",
        help=(
            "record the run's arrival stream and result digest as a .lrtr "
            "trace FILE for 'liferaft replay'"
        ),
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the run's merged metrics snapshot (virtual + real "
            "domains) as JSON; inspect it with 'liferaft inspect FILE'"
        ),
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write the run's span timeline as Chrome-trace JSON "
            "(load it in Perfetto or chrome://tracing)"
        ),
    )
    run.add_argument(
        "--series-window-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "virtual-time window between telemetry series barriers "
            "(default: 64 bucket reads); purely an observation cadence"
        ),
    )
    run.add_argument(
        "--archive-out",
        default=None,
        metavar="FILE",
        help=(
            "write a .lrrun run archive (spec + metrics + per-query cost "
            "ledger + result digest) for later 'liferaft compare'"
        ),
    )

    replay = subparsers.add_parser(
        "replay",
        help=(
            "re-run a recorded .lrtr trace and verify the result digest is "
            "bit-identical to the recording"
        ),
    )
    replay.add_argument("trace", metavar="FILE", help=".lrtr trace file to replay")
    replay.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard workers (default: the recorded worker count)",
    )
    replay.add_argument(
        "--backend",
        default=None,
        choices=("virtual", "process"),
        help="execution backend when replaying with multiple workers",
    )
    replay.add_argument(
        "--store-path",
        default=None,
        metavar="FILE",
        help="replay against an ingested .lrbs bucket store",
    )
    replay.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the digest comparison (report-only replay)",
    )

    scenarios = subparsers.add_parser(
        "scenarios",
        help=(
            "list the adversarial scenario library, or record one scenario "
            "as a .lrtr trace fixture"
        ),
    )
    scenarios.add_argument(
        "--record",
        default=None,
        metavar="NAME",
        help="scenario to run serially and record (see the bare listing)",
    )
    scenarios.add_argument(
        "--out", default=None, metavar="FILE", help=".lrtr file to write"
    )
    scenarios.add_argument(
        "--queries",
        type=_positive_int,
        default=None,
        metavar="N",
        help="override the scenario's default query count",
    )
    scenarios.add_argument(
        "--buckets",
        type=_positive_int,
        default=None,
        metavar="N",
        help="override the scenario's default bucket count",
    )
    scenarios.add_argument(
        "--seed", type=int, default=None, help="override the scenario's default seed"
    )

    inspect_cmd = subparsers.add_parser(
        "inspect",
        help=(
            "pretty-print a metrics snapshot written by "
            "'liferaft run --metrics-out'"
        ),
    )
    inspect_cmd.add_argument(
        "metrics", metavar="FILE", help="metrics snapshot (.json) to inspect"
    )
    inspect_cmd.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        help=(
            "compare FILE against a second snapshot and print per-metric "
            "deltas instead of the summary table"
        ),
    )

    report = subparsers.add_parser(
        "report",
        help=(
            "render a full run report (metrics, time series, SLA summary, "
            "recovery/scale events) from an exported metrics snapshot"
        ),
    )
    report.add_argument(
        "metrics", metavar="FILE", help="metrics snapshot (.json) to report on"
    )
    report.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format: human-readable text (default) or machine-readable JSON",
    )

    compare = subparsers.add_parser(
        "compare",
        help=(
            "diff two .lrrun run archives: per-metric (virtual domain) and "
            "per-query cost-ledger deltas, with drift exit codes "
            "(0 none, 1 telemetry drift, 2 result-digest drift)"
        ),
    )
    compare.add_argument("archive_a", metavar="A", help="baseline .lrrun archive")
    compare.add_argument("archive_b", metavar="B", help="candidate .lrrun archive")

    envelopes = subparsers.add_parser(
        "envelopes",
        help=(
            "check or (re-)record the committed per-scenario SLA envelope "
            "fixtures (admission rates, SLA attainment, completion counts)"
        ),
    )
    envelopes.add_argument(
        "names",
        nargs="*",
        metavar="SCENARIO",
        help="scenarios to check/record (default: the whole catalog)",
    )
    group = envelopes.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--check",
        action="store_true",
        help="re-derive each envelope and fail on any drift from its fixture",
    )
    group.add_argument(
        "--record",
        action="store_true",
        help="run each scenario and (re-)write its envelope fixture",
    )
    envelopes.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="fixture directory (default: tests/fixtures/envelopes)",
    )

    subparsers.add_parser("list", help="list available experiments")
    return parser


def worker_sweep(max_workers: int) -> List[int]:
    """Powers of two up to *max_workers*, always ending at *max_workers*."""
    if max_workers <= 0:
        raise ValueError("--workers must be positive")
    sweep: List[int] = []
    count = 1
    while count < max_workers:
        sweep.append(count)
        count *= 2
    sweep.append(max_workers)
    return sweep


def _run_experiments(
    names: List[str],
    scale: str,
    workers: Optional[int] = None,
    shard_strategy: Optional[str] = None,
    backend: Optional[str] = None,
    store_path: Optional[str] = None,
) -> int:
    results = run_all(
        scale=scale,
        names=names or None,
        workers=worker_sweep(workers) if workers is not None else None,
        shard_strategy=shard_strategy,
        backend=backend,
        store_path=store_path,
    )
    for result in results:
        print(result.render())
        print()
    return 0


def _run_trace(scale: str, seed: int) -> int:
    trace = build_trace(scale, seed=seed)
    stats = TraceStatistics(trace.queries)
    print(f"trace: {len(trace)} queries, {trace.total_objects()} cross-match objects")
    for key, value in stats.describe().items():
        print(f"  {key}: {value:.4g}")
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    from repro.experiments.common import scale_preset
    from repro.storage.ingest import (
        DEFAULT_ROWS_PER_BUCKET,
        ingest_catalog,
        materialize_layout,
    )
    from repro.storage.partitioner import BucketPartitioner

    if args.sky_objects is not None:
        from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig

        if args.rows_per_bucket is not None or args.bucket_count is not None or args.workers > 1:
            raise SystemExit(
                "--rows-per-bucket/--bucket-count/--workers apply to density "
                "ingests only; a --sky-objects ingest writes the generated "
                "catalog exactly (size it with --sky-objects and "
                "--objects-per-bucket)"
            )
        generator = SkyGenerator(SkyGeneratorConfig(object_count=args.sky_objects, seed=args.seed))
        table = generator.generate("sdss")
        manifest = ingest_catalog(
            args.out, table, objects_per_bucket=args.objects_per_bucket or 10_000
        )
        mode = f"synthetic sky ({args.sky_objects} objects, exact rows)"
    else:
        if args.objects_per_bucket is not None:
            raise SystemExit(
                "--objects-per-bucket applies to --sky-objects ingests only; "
                "density ingests take their bucket population from the layout"
            )
        bucket_count = args.bucket_count or scale_preset(args.scale).bucket_count
        layout = BucketPartitioner().partition_density(bucket_count)
        manifest = materialize_layout(
            args.out,
            layout,
            rows_per_bucket=args.rows_per_bucket or DEFAULT_ROWS_PER_BUCKET,
            seed=args.seed,
            workers=args.workers,
        )
        mode = f"density layout ({args.scale} scale)"
    print(f"ingested {mode} -> {manifest.path}")
    print(
        f"  generation {manifest.generation} | {manifest.bucket_count} buckets | "
        f"{manifest.total_objects:,} layout objects | "
        f"{manifest.total_rows:,} materialised rows | "
        f"{manifest.file_bytes / 1024 / 1024:.2f} MiB"
    )
    return 0


def _build_reliability(args: argparse.Namespace):
    """Assemble a ReliabilityConfig from the run command's flags (or None)."""
    if (
        args.checkpoint_dir is None
        and args.checkpoint_every is None
        and args.inject_crash is None
        and args.scale_down is None
        and args.scale_up is None
    ):
        if args.checkpoint_window_ms is not None:
            # A bare tuning knob must not silently turn the subsystem on.
            raise SystemExit(
                "--checkpoint-window-ms tunes the reliability window and "
                "requires --checkpoint-dir, --checkpoint-every, "
                "--inject-crash, --scale-down or --scale-up"
            )
        return None
    from repro.reliability import FaultPlan, ReliabilityConfig, ScalePlan

    if args.inject_crash and args.scale_up:
        # Crash injection disables stealing (bit-comparability), but a
        # joining worker can only acquire work through steal rounds.
        raise SystemExit(
            "--inject-crash cannot be combined with --scale-up: crash "
            "injection disables work stealing, and a joining worker "
            "acquires work only through steal rounds"
        )
    try:
        faults = FaultPlan.parse(args.inject_crash) if args.inject_crash else None
        scale = (
            ScalePlan.parse(args.scale_down or (), args.scale_up or ())
            if args.scale_down or args.scale_up
            else None
        )
        if scale:
            scale.validate(args.workers)
        total_workers = args.workers + (scale.total_ups() if scale else 0)
        if faults:
            for point in faults.crashes:
                if point.worker_id >= total_workers:
                    raise ValueError(
                        f"--inject-crash {point.spec} targets worker "
                        f"{point.worker_id}, but the run has workers "
                        f"0..{total_workers - 1} (worker ids are 0-based)"
                    )
        return ReliabilityConfig(
            checkpoint_dir=args.checkpoint_dir,
            cadence=args.checkpoint_every or "windows:1",
            faults=faults,
            scale=scale,
            window_quantum_ms=args.checkpoint_window_ms,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _single_run(
    simulator,
    queries,
    args: argparse.Namespace,
    store_path,
    reliability=None,
    enable_stealing: bool = True,
    record_trace=None,
    metrics_out=None,
    trace_out=None,
    archive_out=None,
):
    from repro.sim.runspec import RunSpec

    # Reliability runs always go through the parallel path: RunSpec's
    # dispatch sends any spec with a reliability config (or workers > 1)
    # to the parallel engine, whose window barriers host the checkpoints
    # (a 1-worker parallel run reproduces the serial engine exactly —
    # the parity tests pin that down).
    return simulator.execute(
        queries,
        RunSpec(
            policy=args.policy,
            alpha=args.alpha,
            workers=args.workers,
            backend=args.backend if args.workers > 1 or reliability is not None else None,
            enable_stealing=enable_stealing,
            reliability=reliability,
            store_path=store_path,
            record_trace=record_trace,
            metrics_out=metrics_out,
            trace_out=trace_out,
            archive_out=archive_out,
            series_window_ms=getattr(args, "series_window_ms", None),
        ),
    )


def _run_single(args: argparse.Namespace) -> int:
    from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS, Simulator

    if args.backend is not None and args.workers <= 1:
        raise SystemExit("--backend requires --workers > 1")
    if args.verify_against_memory and args.store_path is None:
        raise SystemExit("--verify-against-memory requires --store-path")
    if args.verify_recovery and not args.inject_crash:
        raise SystemExit("--verify-recovery requires --inject-crash")
    if args.store_path is not None:
        if args.bucket_count is not None:
            raise SystemExit("--bucket-count cannot override an ingested store's layout")
        simulator = Simulator.from_store(args.store_path)
        bucket_count = len(simulator.layout)
    else:
        bucket_count = args.bucket_count
        simulator = build_simulator(
            args.scale, **({"bucket_count": bucket_count} if bucket_count else {})
        )
        bucket_count = len(simulator.layout)
    trace = build_trace(args.scale, seed=args.seed, bucket_count=bucket_count)
    if args.saturation is not None:
        trace = trace.with_saturation(args.saturation)

    reliability = _build_reliability(args)
    # Injected crashes disable stealing: each shard is then a pure function
    # of its schedule, so the recovered run is bit-comparable to a clean one.
    stealing = not (reliability is not None and reliability.faults)
    result = _single_run(
        simulator,
        trace.queries,
        args,
        store_path=args.store_path,
        reliability=reliability,
        enable_stealing=stealing,
        record_trace=args.record_trace,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        archive_out=args.archive_out,
    )
    if args.record_trace:
        print(f"recorded trace -> {args.record_trace}")
    if args.metrics_out:
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    if args.trace_out:
        print(f"wrote span timeline -> {args.trace_out}")
    if args.archive_out:
        print(f"wrote run archive -> {args.archive_out}")
    engine = (
        "serial engine"
        if args.workers == 1 and reliability is None
        else f"{result.backend} backend x{args.workers}"
    )
    print(
        f"run: {result.policy_name} on {engine}, {result.store_backend} store "
        f"({len(trace)} queries, {bucket_count} buckets)"
    )
    rows = [(field, getattr(result, field)) for field in VIRTUAL_CLOCK_PARITY_FIELDS]
    rows.append(("makespan_s", result.makespan_s))
    rows.append(("avg_response_s", result.avg_response_time_s))
    if result.store_backend == "file":
        rows.append(("real_read_s", result.real_read_s))
    print(render_table(("metric", "value"), rows))
    if result.reliability is not None:
        print("\nreliability:")
        print(
            render_table(
                ("metric", "value"),
                list(result.reliability.describe().items()),
            )
        )
    if result.serving is not None:
        summary = result.serving.deadline_summary
        print("\nserving SLA:")
        print(render_table(("metric", "value"), sorted(summary.items())))

    status = 0
    if args.verify_recovery:
        planned = len(reliability.faults) if reliability and reliability.faults else 0
        injected = result.reliability.crashes_injected if result.reliability else 0
        if injected < planned:
            # A crash point whose window the run never reached (or whose
            # shard had already drained) verifies nothing; fail loudly
            # rather than comparing two effectively-clean runs.
            print(
                f"\nRECOVERY VERIFICATION INVALID: only {injected} of "
                f"{planned} planned crashes fired — the run drained before "
                "the crash windows (shrink --checkpoint-window-ms or the "
                "--inject-crash window indices)"
            )
            return 1
        clean = _single_run(
            simulator,
            trace.queries,
            args,
            store_path=args.store_path,
            reliability=None,
            enable_stealing=stealing,
        )
        mismatches = [
            (field, getattr(result, field), getattr(clean, field))
            for field in VIRTUAL_CLOCK_PARITY_FIELDS
            if getattr(result, field) != getattr(clean, field)
        ]
        if mismatches:
            print("\nRECOVERY PARITY FAILURE: crash-injected run diverged from clean run")
            print(render_table(("metric", "crashed", "clean"), mismatches))
            status = 1
        else:
            print(
                f"\nrecovery parity OK: all {len(VIRTUAL_CLOCK_PARITY_FIELDS)} "
                "virtual-clock totals identical across crash-injected and clean runs"
            )

    if not args.verify_against_memory:
        return status
    memory = _single_run(
        simulator,
        trace.queries,
        args,
        store_path=None,
        reliability=reliability,
        enable_stealing=stealing,
    )
    mismatches = []
    for field in VIRTUAL_CLOCK_PARITY_FIELDS:
        file_value, memory_value = getattr(result, field), getattr(memory, field)
        if file_value != memory_value:
            mismatches.append((field, file_value, memory_value))
    if mismatches:
        print("\nPARITY FAILURE: file-backed run diverged from in-memory run")
        print(render_table(("metric", "file", "memory"), mismatches))
        return 1
    print(
        f"\nparity OK: all {len(VIRTUAL_CLOCK_PARITY_FIELDS)} virtual-clock totals identical "
        "across file-backed and in-memory stores"
    )
    return status


def _run_replay(args: argparse.Namespace) -> int:
    from repro.workload.replay import replay_recorded

    try:
        outcome = replay_recorded(
            args.trace,
            workers=args.workers,
            backend=args.backend,
            store_path=args.store_path,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    trace = outcome.trace
    result = outcome.result
    meta = trace.meta
    print(
        f"replayed {args.trace}: {len(trace)} queries "
        f"(recorded on {meta.get('backend', '?')} x{meta.get('workers', '?')}, "
        f"policy {meta.get('policy', '?')})"
    )
    print(
        f"  completed {result.completed_queries} | "
        f"makespan {result.makespan_s:.2f}s | "
        f"throughput {result.throughput_qps:.3f} qps"
    )
    if args.no_verify:
        print("  digest check skipped (--no-verify)")
        return 0
    if not trace.expected_digest:
        print("  trace carries no expected digest; nothing to verify")
        return 0
    if not outcome.digest_checked:
        print(
            "  digest not comparable: replay configuration (workers/stealing) "
            "differs from the recording — completion sets still match, but "
            "per-query timings legitimately shift"
        )
        return 0
    if outcome.digest_matches:
        print(f"  digest OK: {result.result_digest}")
        return 0
    print(
        "  DIGEST MISMATCH:\n"
        f"    expected {trace.expected_digest}\n"
        f"    got      {result.result_digest}"
    )
    return 1


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.workload.scenarios import SCENARIOS, record_scenario

    if args.record is None:
        if args.out is not None:
            raise SystemExit("--out requires --record NAME")
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(
                f"{name:<{width}}  {scenario.description} "
                f"(defaults: {scenario.default_query_count} queries, "
                f"{scenario.default_bucket_count} buckets, "
                f"seed {scenario.default_seed})"
            )
        return 0
    if args.out is None:
        raise SystemExit("--record requires --out FILE")
    try:
        info = record_scenario(
            args.record,
            args.out,
            query_count=args.queries,
            bucket_count=args.buckets,
            seed=args.seed,
        )
    except KeyError as error:
        raise SystemExit(error.args[0]) from error
    print(
        f"recorded scenario {args.record!r} -> {info.path} "
        f"({info.query_count} queries, {info.byte_size / 1024:.1f} KiB)"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.deadline import parse_deadline_mix
    from repro.service.frontend import ServiceConfig

    if args.store_path is not None:
        from repro.sim.simulator import Simulator

        simulator = Simulator.from_store(args.store_path)
    else:
        simulator = build_simulator(args.scale)
    trace = build_trace(args.scale, seed=args.seed, bucket_count=len(simulator.layout))
    if args.saturation is not None:
        trace = trace.with_saturation(args.saturation)
    config_kwargs = dict(
        admission=args.admission,
        intake_bound=args.intake_bound,
        max_pending_buckets=args.max_pending_buckets,
        max_client_qps=args.max_client_qps,
        clients=args.clients,
        seed=args.seed,
        live_series_window_ms=args.live_series_window_ms,
    )
    if args.deadline_mix:
        config_kwargs["deadline_mix"] = parse_deadline_mix(args.deadline_mix)
    service = ServiceConfig(**config_kwargs)
    from repro.sim.runspec import RunSpec

    if args.workers <= 1 and args.backend is not None:
        raise SystemExit("--backend requires --workers > 1 (the serial engine has no backend)")
    result = simulator.execute(
        trace.queries,
        RunSpec(
            policy="liferaft",
            alpha=args.alpha,
            workers=args.workers,
            backend=args.backend,
            service=service,
            metrics_out=args.metrics_out,
        ),
    )
    if args.metrics_out:
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    engine_label = (
        f"{result.backend} backend x{args.workers}" if args.workers > 1 else "serial engine"
    )
    serving = result.serving
    assert serving is not None
    print(
        f"serving report ({serving.admission_policy} admission, "
        f"{serving.clients} clients, alpha={args.alpha:g}, {engine_label}, "
        f"{result.store_backend} store)"
    )
    print(
        f"  offered {serving.offered} | admitted {serving.admitted} | "
        f"rejected {serving.rejected} ({serving.rejection_rate:.1%}) | "
        f"deferrals {serving.deferrals}"
    )
    print(
        f"  completed {serving.completed} | chunks {serving.chunks} | "
        f"avg TTFR {serving.avg_time_to_first_result_s:.2f}s | "
        f"avg completion {serving.avg_time_to_completion_s:.2f}s"
    )
    print()
    print(
        render_table(
            (
                "class",
                "admitted",
                "rejected",
                "completed",
                "first-result SLA",
                "completion SLA",
            ),
            serving.deadline_rows,
        )
    )
    summary = serving.deadline_summary
    print(
        f"\n  SLA overall: first-result {summary['first_result_hit_rate']:.1%} | "
        f"completion {summary['completion_hit_rate']:.1%} over "
        f"{int(summary['completed'])} completed"
    )
    return 0


def _run_inspect(args: argparse.Namespace) -> int:
    from repro.telemetry.inspect import domain_counts, load_snapshot, summary_rows
    from repro.telemetry.report import diff_snapshots, render_diff

    snapshot = load_snapshot(args.metrics)
    other = load_snapshot(args.diff) if args.diff else None
    if other is not None:
        print(render_diff(snapshot, other, label_a=args.metrics, label_b=args.diff))
        return 1 if diff_snapshots(snapshot, other) else 0
    virtual, real = domain_counts(snapshot)
    print(
        f"metrics snapshot {args.metrics}: "
        f"{virtual} virtual-domain + {real} real-domain metrics"
    )
    print(render_table(("domain", "metric", "type", "value"), summary_rows(snapshot)))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.telemetry.inspect import load_snapshot
    from repro.telemetry.report import render_report, report_to_json

    snapshot = load_snapshot(args.metrics)
    if args.format == "json":
        print(json.dumps(report_to_json(snapshot), sort_keys=True, indent=2))
        return 0
    print(f"run report from {args.metrics}")
    print(render_report(snapshot))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from repro.telemetry.archive import compare_archives, read_run_archive, render_compare

    report = compare_archives(read_run_archive(args.archive_a), read_run_archive(args.archive_b))
    print(render_compare(report, label_a=args.archive_a, label_b=args.archive_b))
    return report.exit_code


def _run_envelopes(args: argparse.Namespace) -> int:
    from repro.workload.envelopes import (
        DEFAULT_ENVELOPE_DIR,
        check_envelope,
        compute_envelope,
        write_envelope,
    )
    from repro.workload.scenarios import SCENARIOS

    directory = args.dir if args.dir is not None else DEFAULT_ENVELOPE_DIR
    names = args.names or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenarios {unknown}; available: {sorted(SCENARIOS)}"
        )
    if args.record:
        for name in names:
            path = write_envelope(compute_envelope(name), directory)
            print(f"recorded envelope {name} -> {path}")
        return 0
    failures = 0
    for name in names:
        mismatches = check_envelope(name, directory)
        if mismatches:
            failures += 1
            print(f"ENVELOPE DRIFT: {name}")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(f"envelope OK: {name}")
    if failures:
        print(
            f"\n{failures} of {len(names)} envelopes drifted; if the change "
            "is intentional, re-record with 'liferaft envelopes --record' "
            "and commit the fixture diff"
        )
        return 1
    return 0


#: Subcommands whose handler takes the parsed arguments whole.
_COMMANDS = {
    "serve": _run_serve,
    "ingest": _run_ingest,
    "run": _run_single,
    "replay": _run_replay,
    "scenarios": _run_scenarios,
    "inspect": _run_inspect,
    "report": _run_report,
    "compare": _run_compare,
    "envelopes": _run_envelopes,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A file that is missing, unreadable or fails its format checks ends any
    command with a one-line message, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in sorted(EXPERIMENTS):
                print(name)
            return 0
        if args.command == "experiments":
            return _run_experiments(
                list(args.names),
                args.scale,
                workers=args.workers,
                shard_strategy=args.shard_strategy,
                backend=args.backend,
                store_path=args.store_path,
            )
        if args.command == "trace":
            return _run_trace(args.scale, args.seed)
        return _COMMANDS[args.command](args)
    except (OSError, FormatError) as error:
        raise SystemExit(str(error)) from error


if __name__ == "__main__":
    sys.exit(main())
