"""Worker-scaling experiment: throughput speedup from parallel shards.

Beyond the paper's single-server setup: the trace is replayed against the
sharded engine at 1, 2, 4 (and optionally more) workers, with the bucket
range sharded across them and work stealing enabled.  Total service work
is invariant (the same batches run, just distributed), so the makespan —
and therefore the query throughput — should improve monotonically with
the worker count until the arrival stream or shard imbalance becomes the
bottleneck.

The *backend* knob selects where the shard workers run: ``"virtual"``
keeps them all in one OS process (virtual-time speedup only),
``"process"`` runs one OS process per shard so the table
additionally shows **real** wall-clock speedup on the host's cores.
Virtual-clock columns are identical across backends by construction (the
cross-backend parity tests pin this down).

The trace is replayed well above the serial capacity so the run is
service-bound at every worker count; an under-saturated run would hide the
speedup behind arrival gaps.

Worker processes are reused between runs of one interpreter, so on the
process backend a row's wall clock would depend on which rows ran before
it.  The sweep therefore boots the widest row's workers in an untimed pass
first and runs the rows widest first (the idle list only ever shrinks, so
no row boots); each row's own boot seconds are printed beside its wall
clock as the proof.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.experiments.common import (
    ExperimentResult,
    build_simulator,
    build_trace,
    estimate_capacity_qps,
)
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationResult, Simulator
from repro.telemetry.registry import metric_value
from repro.workload.generator import QueryTrace

#: Worker counts on the experiment's x axis.
WORKER_SWEEP = (1, 2, 4, 8)
#: Replay rate as a multiple of the serial capacity: deep saturation, so
#: every worker count is service-bound and the speedup is visible.
SATURATION_FACTOR = 16.0


def boot_process_workers(simulator: Simulator, queries: Sequence, workers: int) -> float:
    """Boot *workers* shard worker processes before a sweep times anything.

    Worker processes outlive a run and are reused by the next one, so the
    first process-backend run of an interpreter pays interpreter boots
    that later runs do not.  A one-query pass at the sweep's widest row
    leaves that many workers idle; returns the seconds it waited for them
    (``coordinator.boot_s``).
    """
    result = simulator.execute(
        list(queries[:1]),
        RunSpec(policy="liferaft", workers=workers, backend="process", enable_stealing=False),
    )
    return metric_value(result.telemetry, "coordinator.boot_s")


def run(
    scale: str = "small",
    trace: Optional[QueryTrace] = None,
    simulator: Optional[Simulator] = None,
    workers: Optional[Sequence[int]] = None,
    shard_strategy: str = "round_robin",
    alpha: float = 0.25,
    backend: str = "virtual",
    store_path: Optional[Union[str, os.PathLike]] = None,
) -> ExperimentResult:
    """Measure throughput speedup versus worker count.

    With *store_path* set (an ingested ``.lrbs`` file), every worker
    count replays against the materialised on-disk buckets: each bucket
    service performs real seeks, reads and columnar decoding, so the
    wall-clock columns measure real storage work rather than cost-model
    arithmetic.  Virtual-clock columns are identical either way.
    """
    if simulator is None:
        simulator = (
            Simulator.from_store(store_path)
            if store_path is not None
            else build_simulator(scale)
        )
    elif store_path is not None:
        simulator = Simulator(simulator.config, store_path=store_path)
    trace = trace or build_trace(scale, bucket_count=len(simulator.layout))
    sweep: Tuple[int, ...] = tuple(workers) if workers else WORKER_SWEEP
    if 1 not in sweep:
        # Speedups are always reported against the serial (1-worker)
        # baseline, so make sure it is part of the sweep.
        sweep = (1,) + sweep
    sweep = tuple(sorted(set(sweep)))
    capacity = estimate_capacity_qps(trace, simulator)
    saturation = capacity * SATURATION_FACTOR
    replayed = trace.with_saturation(saturation)

    boot_pass_s = (
        boot_process_workers(simulator, replayed.queries, max(sweep))
        if backend == "process"
        else 0.0
    )
    # Run widest first (see the module docstring); rows stay ascending.
    results: List[SimulationResult] = [
        simulator.execute(
            replayed.queries,
            RunSpec(
                policy="liferaft",
                workers=count,
                alpha=alpha,
                shard_strategy=shard_strategy,
                label=f"workers={count}",
                saturation_qps=saturation,
                backend=backend,
            ),
        )
        for count in reversed(sweep)
    ][::-1]

    boot_note = (
        f"; its worker processes were booted before the sweep in an untimed "
        f"pass of {boot_pass_s:.2f} s"
        if backend == "process"
        else ""
    )
    base_tp = results[0].throughput_qps
    base_elapsed = results[0].real_elapsed_s
    rows = []
    for result in results:
        speedup = result.throughput_qps / base_tp if base_tp else float("inf")
        wall_speedup = (
            base_elapsed / result.real_elapsed_s if result.real_elapsed_s else float("inf")
        )
        rows.append(
            (
                result.workers,
                result.throughput_qps,
                speedup,
                result.avg_response_time_s,
                result.cache_hit_rate,
                result.steals,
                result.wall_clock_s,
                result.real_elapsed_s,
                metric_value(result.telemetry, "coordinator.boot_s"),
                wall_speedup,
                result.real_read_s,
            )
        )

    by_workers = {result.workers: result for result in results}
    headline = {
        "saturation_qps": saturation,
        "serial_throughput_qps": base_tp,
        "serial_elapsed_s": base_elapsed,
        "boot_pass_s": boot_pass_s,
    }
    for count in (2, 4, 8):
        result = by_workers.get(count)
        if result is None:
            continue
        if base_tp:
            headline[f"speedup_{count}x"] = result.throughput_qps / base_tp
        if result.real_elapsed_s:
            headline[f"wall_speedup_{count}x"] = base_elapsed / result.real_elapsed_s
    return ExperimentResult(
        name="scaling",
        title=(
            f"Throughput scaling with parallel workers "
            f"({shard_strategy} sharding, {backend} backend)"
        ),
        paper_expectation=(
            "beyond the paper: with bucket ownership sharded across N workers "
            "and work stealing, throughput should rise monotonically from 1 to "
            "4 workers on the saturated synthetic trace"
        ),
        headers=(
            "workers",
            "throughput (q/s)",
            "speedup",
            "avg response (s)",
            "cache hit rate",
            "steals",
            "virtual wall clock (s)",
            "real elapsed (s)",
            "boot (s)",
            "wall speedup",
            "real read (s)",
        ),
        rows=rows,
        headline=headline,
        notes=(
            f"trace replayed at {SATURATION_FACTOR:g}x the serial capacity so "
            f"every worker count is service-bound; backend={backend}, "
            f"store={'file-backed (' + os.fspath(store_path) + ')' if store_path else 'in-memory'} "
            "(wall speedup is only meaningful on the process backend with "
            f"multiple cores{boot_note})"
        ),
    )
