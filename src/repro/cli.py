"""Command-line interface: run experiments, replays and reports.

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
crash-injected run — work stealing included — is bit-identical to an
uninterrupted one::

    liferaft run --scale small --store-path /tmp/small.lrbs --workers 2 \
        --backend process --inject-crash 1@1 --checkpoint-every windows:2 \
        --verify-recovery

Shrink a three-worker run to two mid-run, then grow back to three — the
departing shard's queues migrate over the stealing seam and the run's
completion set is unchanged; a crash on top still verifies against the
same run without it::

    liferaft run --scale small --workers 3 --scale-down 1@2 --scale-up 4
    liferaft run --scale small --workers 3 --scale-down 1@2 --scale-up 4 \
        --inject-crash 3@6 --checkpoint-every windows:3 \
        --checkpoint-window-ms 2400 --verify-recovery

Record a run as a ``.lrtr`` trace, then replay it elsewhere and verify
the result digest is bit-identical::

    liferaft run --scale small --record-trace /tmp/run.lrtr
    liferaft replay /tmp/run.lrtr --backend virtual

List the adversarial scenario library, record one as a trace fixture::

    liferaft scenarios
    liferaft scenarios --record hotspot_zone_skew --out /tmp/hotspot.lrtr

Export a run's metrics snapshot and its Perfetto-loadable span timeline
(including per-query causal flows), then render the full run report —
metrics, windowed time series, SLA summary and recovery/scale events::

    liferaft run --scale small --metrics-out /tmp/metrics.json \
        --trace-out /tmp/spans.json
    liferaft report /tmp/metrics.json

Diff two runs — two ``.lrrun`` archives, or two metrics snapshots — over
the virtual domain (exit 0: no drift, 1: drift, 2: result-digest drift)::

    liferaft run --scale small --archive-out /tmp/a.lrrun
    liferaft compare /tmp/a.lrrun /tmp/b.lrrun
    liferaft compare /tmp/metrics.json /tmp/other-metrics.json

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
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional

from repro.core.baselines import POLICY_NAMES
from repro.experiments import EXPERIMENTS, run_all
from repro.experiments.common import SCALES, build_simulator, build_trace, render_table
from repro.fileio import FormatError
from repro.parallel.backend import BACKENDS
from repro.workload.stats import TraceStatistics


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive integers."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


#: Flags that mean the same thing on every subcommand that takes them.
_SHARED_FLAGS = {
    "--scale": dict(
        default="small",
        choices=sorted(SCALES),
        help="experiment scale (trace and partition size)",
    ),
    "--seed": dict(
        type=int,
        default=8675309,
        help="generator seed (trace, materialised rows or sky catalog)",
    ),
    "--alpha": dict(type=float, default=0.25, help="LifeRaft age bias (starvation knob)"),
    "--saturation": dict(
        type=float,
        default=None,
        metavar="QPS",
        help="replay arrival rate (default: the trace's attached arrivals)",
    ),
    "--workers": dict(
        type=_positive_int,
        default=1,
        metavar="N",
        help="shard workers (>1 runs the parallel engine; replay: default the recorded count)",
    ),
    "--backend": dict(
        default=None,
        choices=BACKENDS,
        help=(
            "execution backend of a multi-worker run: 'virtual' keeps every "
            "shard worker in-process (deterministic), 'process' runs one OS "
            "process per shard for real wall-clock speedup (default: virtual)"
        ),
    ),
    "--store-path": dict(
        default=None,
        metavar="FILE",
        help=(
            "read an ingested .lrbs bucket store (real storage I/O) instead "
            "of the in-memory cost model (see 'liferaft ingest')"
        ),
    ),
    "--bucket-count": dict(
        type=_positive_int,
        default=None,
        metavar="N",
        help="override the scale's bucket count (not with --store-path or --sky-objects)",
    ),
    "--metrics-out": dict(
        default=None,
        metavar="FILE",
        help=(
            "write the run's merged metrics snapshot (virtual + real domains) "
            "as JSON for 'liferaft report' and 'liferaft compare'"
        ),
    ),
}

#: The shared flags ``run`` and ``serve`` both take.
_RUN_FLAGS = (
    "--scale", "--seed", "--alpha", "--saturation", "--workers", "--backend", "--store-path",
    "--metrics-out",
)


def _shared(*flags: str, **defaults) -> argparse.ArgumentParser:
    """A ``parents=`` group of *flags*; *defaults* overrides one command's defaults."""
    group = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        group.add_argument(flag, **_SHARED_FLAGS[flag])
    group.set_defaults(**defaults)
    return group


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="liferaft",
        description="LifeRaft (CIDR 2009) reproduction: experiments and trace tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments",
        parents=[_shared("--scale", "--backend", "--store-path")],
        help="run the paper's experiments and print their tables",
    )
    experiments.add_argument(
        "names",
        nargs="*",
        choices=sorted(EXPERIMENTS) + [[]],
        help="experiments to run (default: all)",
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

    subparsers.add_parser(
        "trace",
        parents=[_shared("--scale", "--seed")],
        help="generate a trace and print its statistics",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[_shared(*_RUN_FLAGS)],
        help=(
            "replay a trace through the serving front-end (admission control, "
            "result streaming, SLA scoring) and print the serving report"
        ),
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

    ingest = subparsers.add_parser(
        "ingest",
        parents=[_shared("--scale", "--seed", "--bucket-count")],
        help=(
            "materialise a partition layout (or a synthetic sky catalog) as "
            "a columnar on-disk bucket store file"
        ),
    )
    ingest.add_argument("--out", required=True, metavar="FILE", help="store file to write")
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
        parents=[_shared(*_RUN_FLAGS, "--bucket-count")],
        help=(
            "replay one trace under one policy and print the virtual-clock "
            "summary (optionally against an on-disk bucket store)"
        ),
    )
    run.add_argument(
        "--policy", default="liferaft", choices=POLICY_NAMES, help="scheduling policy name"
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
            "list; real SIGKILL on --backend process).  The recovered shard "
            "catches up at the barriers it missed, so the run, stealing "
            "included, is bit-identical to an uninterrupted one.  Entries "
            "are barrier events of one plan: W@N:leave and @N:join are the "
            "departures and joins --scale-down and --scale-up spell"
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
            "kills (same windows, departures and joins) and fail unless every "
            "virtual-clock total is identical (requires --inject-crash)"
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
            "comma list)"
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
        parents=[_shared("--workers", "--backend", "--store-path", workers=None)],
        help=(
            "re-run a recorded .lrtr trace and verify the result digest is "
            "bit-identical to the recording"
        ),
    )
    replay.add_argument("trace", metavar="FILE", help=".lrtr trace file to replay")
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
            "diff two .lrrun run archives or two metrics snapshots: "
            "per-metric (virtual domain) and per-query cost-ledger deltas, "
            "with drift exit codes (0 none, 1 telemetry drift, 2 "
            "result-digest drift; a snapshot has no digest)"
        ),
    )
    compare.add_argument("archive_a", metavar="A", help="baseline .lrrun archive or snapshot")
    compare.add_argument("archive_b", metavar="B", help="candidate .lrrun archive or snapshot")

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


@contextmanager
def _building_inputs():
    """Turn a ``ValueError`` raised while a command builds its inputs into a one-line exit.

    The validity rules live in the config classes, so a bad flag value
    surfaces as their ``ValueError``.  Never wrap ``Simulator.execute`` in
    this: a ``ValueError`` from inside a run is a bug and keeps its traceback.
    """
    try:
        yield
    except ValueError as error:
        raise SystemExit(str(error)) from error


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


def _run_list(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    results = run_all(
        scale=args.scale,
        names=args.names or None,
        workers=worker_sweep(args.workers) if args.workers is not None else None,
        shard_strategy=args.shard_strategy,
        backend=args.backend,
        store_path=args.store_path,
    )
    for result in results:
        print(result.render())
        print()
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    trace = build_trace(args.scale, seed=args.seed)
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

        if args.rows_per_bucket is not None or args.bucket_count is not None:
            raise SystemExit(
                "--rows-per-bucket/--bucket-count apply to density "
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


def _site_and_trace(args: argparse.Namespace, bucket_count: Optional[int] = None):
    """The setup ``run`` and ``serve`` share: simulator, trace and saturation."""
    from repro.sim.simulator import Simulator

    if args.backend is not None and args.workers <= 1:
        raise SystemExit("--backend requires --workers > 1 (the serial engine has no backend)")
    if args.store_path is not None:
        if bucket_count is not None:
            raise SystemExit("--bucket-count cannot override an ingested store's layout")
        simulator = Simulator.from_store(args.store_path)
    else:
        simulator = build_simulator(
            args.scale, **({"bucket_count": bucket_count} if bucket_count else {})
        )
    trace = build_trace(args.scale, seed=args.seed, bucket_count=len(simulator.layout))
    if args.saturation is not None:
        trace = trace.with_saturation(args.saturation)
    return simulator, trace


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
    from repro.reliability import FaultPlan, ReliabilityConfig
    from repro.reliability.faults import split_specs

    # --scale-down W@N and --scale-up N spell the plan's W@N:leave and @N:join.
    events = [
        *(args.inject_crash or ()),
        *(f"{spec}:leave" for spec in split_specs(args.scale_down or ())),
        *(f"@{spec}:join" for spec in split_specs(args.scale_up or ())),
    ]
    return ReliabilityConfig(
        checkpoint_dir=args.checkpoint_dir,
        cadence=args.checkpoint_every or "windows:1",
        faults=FaultPlan.parse(events),
        window_quantum_ms=args.checkpoint_window_ms,
    )


#: A verification re-run repeats the run, not its exports.
_NO_EXPORTS = dict(record_trace=None, metrics_out=None, trace_out=None, archive_out=None)


def _check_parity(result, other, columns, failure: str, success: str) -> int:
    """Print whether two runs agree on every virtual-clock total; 1 if not."""
    from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS

    mismatches = [
        (field, getattr(result, field), getattr(other, field))
        for field in VIRTUAL_CLOCK_PARITY_FIELDS
        if getattr(result, field) != getattr(other, field)
    ]
    if mismatches:
        print(f"\n{failure}")
        print(render_table(("metric",) + columns, mismatches))
        return 1
    print(f"\n{success}")
    return 0


def _warn_unfired(faults, report) -> None:
    """One stderr line when planned barrier events did not all execute: only
    the run knows its window count, and it skips an event past the last
    window (or a kill of a shard that had already drained)."""
    executed = {
        "kill": report.crashes_injected,
        "leave": report.scale_downs,
        "join": report.scale_ups,
    }
    short = [
        f"{kind} {done} of {faults.count(kind)}"
        for kind, done in executed.items()
        if done < faults.count(kind)
    ]
    if short:
        print(
            f"warning: planned fault events did not fire ({', '.join(short)} executed); "
            f"the run ended after {report.windows} windows",
            file=sys.stderr,
        )


def _run_single(args: argparse.Namespace) -> int:
    from repro.sim.runspec import RunSpec
    from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS

    if args.verify_against_memory and args.store_path is None:
        raise SystemExit("--verify-against-memory requires --store-path")
    with _building_inputs():
        reliability = _build_reliability(args)
        if args.verify_recovery and not (reliability and reliability.faults.count("kill")):
            raise ValueError("--verify-recovery requires --inject-crash with at least one kill")
        simulator, trace = _site_and_trace(args, args.bucket_count)
        # A spec with a reliability config runs on the parallel engine even
        # at one worker: its window barriers host the checkpoints.
        spec = RunSpec(
            policy=args.policy,
            alpha=args.alpha,
            workers=args.workers,
            backend=args.backend,
            reliability=reliability,
            store_path=args.store_path,
            saturation_qps=args.saturation,
            record_trace=args.record_trace,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            series_window_ms=args.series_window_ms,
            archive_out=args.archive_out,
        )
        if reliability is not None:
            reliability.faults.validate(spec.workers, spec.enable_stealing)
    result = simulator.execute(trace.queries, spec)
    if args.record_trace:
        print(f"recorded trace -> {args.record_trace}")
    if args.metrics_out:
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    if args.trace_out:
        print(f"wrote span timeline -> {args.trace_out}")
    if args.archive_out:
        print(f"wrote run archive -> {args.archive_out}")
    engine = f"{result.backend} backend x{args.workers}" if spec.is_parallel else "serial engine"
    print(
        f"run: {result.policy_name} on {engine}, {result.store_backend} store "
        f"({len(trace)} queries, {len(simulator.layout)} buckets)"
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

    if result.reliability is not None:
        _warn_unfired(reliability.faults, result.reliability)
    status = 0
    if args.verify_recovery:
        planned = reliability.faults.count("kill")
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
        # The clean run keeps the windows, departures and joins; it writes
        # its checkpoints to a private directory, not over the user's files.
        plan = reliability.faults
        without_kills = replace(plan, events=tuple(e for e in plan.events if e.kind != "kill"))
        fault_free = replace(reliability, faults=without_kills, checkpoint_dir=None)
        clean = simulator.execute(
            trace.queries, replace(spec, reliability=fault_free, **_NO_EXPORTS)
        )
        status = _check_parity(
            result,
            clean,
            ("crashed", "clean"),
            "RECOVERY PARITY FAILURE: crash-injected run diverged from clean run",
            f"recovery parity OK: all {len(VIRTUAL_CLOCK_PARITY_FIELDS)} virtual-clock "
            "totals identical across crash-injected and clean runs",
        )
    if args.verify_against_memory:
        memory = simulator.execute(trace.queries, replace(spec, store_path=None, **_NO_EXPORTS))
        status |= _check_parity(
            result,
            memory,
            ("file", "memory"),
            "PARITY FAILURE: file-backed run diverged from in-memory run",
            f"parity OK: all {len(VIRTUAL_CLOCK_PARITY_FIELDS)} virtual-clock totals "
            "identical across file-backed and in-memory stores",
        )
    return status


def _run_replay(args: argparse.Namespace) -> int:
    from repro.workload.replay import load_replay

    with _building_inputs():
        replay = load_replay(
            args.trace,
            workers=args.workers,
            backend=args.backend,
            store_path=args.store_path,
        )
    outcome = replay.execute()
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
    from repro.sim.runspec import RunSpec

    with _building_inputs():
        simulator, trace = _site_and_trace(args)
        mix = {"deadline_mix": parse_deadline_mix(args.deadline_mix)} if args.deadline_mix else {}
        service = ServiceConfig(
            admission=args.admission,
            intake_bound=args.intake_bound,
            max_pending_buckets=args.max_pending_buckets,
            max_client_qps=args.max_client_qps,
            clients=args.clients,
            seed=args.seed,
            live_series_window_ms=args.live_series_window_ms,
            **mix,
        )
        spec = RunSpec(
            policy="liferaft",
            alpha=args.alpha,
            workers=args.workers,
            backend=args.backend,
            service=service,
            saturation_qps=args.saturation,
            metrics_out=args.metrics_out,
        )
    result = simulator.execute(trace.queries, spec)
    if args.metrics_out:
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    engine_label = (
        f"{result.backend} backend x{args.workers}" if spec.is_parallel else "serial engine"
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


def _run_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import load_snapshot, render_report, report_to_json

    snapshot = load_snapshot(args.metrics)
    if args.format == "json":
        print(json.dumps(report_to_json(snapshot), sort_keys=True, indent=2))
        return 0
    print(f"run report from {args.metrics}")
    print(render_report(snapshot))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from repro.telemetry.archive import compare_archives, read_comparable, render_compare

    report = compare_archives(read_comparable(args.archive_a), read_comparable(args.archive_b))
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


#: Every subcommand's handler; each takes the parsed arguments whole.
_COMMANDS = {
    "experiments": _run_experiments,
    "trace": _run_trace,
    "serve": _run_serve,
    "ingest": _run_ingest,
    "run": _run_single,
    "replay": _run_replay,
    "scenarios": _run_scenarios,
    "report": _run_report,
    "compare": _run_compare,
    "envelopes": _run_envelopes,
    "list": _run_list,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A file that is missing, unreadable or fails its format checks ends any
    command with a one-line message, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, FormatError) as error:
        raise SystemExit(str(error)) from error


if __name__ == "__main__":
    sys.exit(main())
