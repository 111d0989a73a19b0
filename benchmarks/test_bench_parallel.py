"""Benchmarks of the worker-scaling experiment (parallel shard execution).

Two backends are measured: the in-process virtual backend (virtual-time
speedup — scheduling quality) and the multiprocessing backend (real
wall-clock speedup — hardware parallelism).  One coordinator drives both,
so virtual-clock numbers are backend-invariant (pinned by the
cross-backend parity tests) and the two benchmarks together separate "the
schedule scales" from "the hardware delivers it".
"""

import os

from benchmarks.conftest import record_headline
from repro.experiments import scaling


def test_bench_parallel_scaling(benchmark, trace, simulator):
    result = benchmark.pedantic(
        scaling.run,
        kwargs={"trace": trace, "simulator": simulator, "workers": (1, 2, 4)},
        rounds=1,
        iterations=1,
    )
    record_headline(benchmark, result)
    # Sharded execution with work stealing should scale: two workers must
    # beat one by a clear margin, and four must beat two.
    assert result.headline["speedup_2x"] > 1.4
    assert result.headline["speedup_4x"] > result.headline["speedup_2x"]


def test_bench_parallel_zone_sharding(benchmark, trace, simulator):
    result = benchmark.pedantic(
        scaling.run,
        kwargs={
            "trace": trace,
            "simulator": simulator,
            "workers": (1, 4),
            "shard_strategy": "zone",
        },
        rounds=1,
        iterations=1,
    )
    record_headline(benchmark, result)
    # Zone sharding preserves cache locality; with stealing it must still
    # deliver a real speedup at four workers.
    assert result.headline["speedup_4x"] > 1.5


def test_bench_parallel_process_backend(benchmark):
    """Real wall-clock speedup from one OS process per shard worker.

    The headline records both the virtual-time speedup (must match the
    virtual backend's) and the measured wall-clock speedup of 4 worker
    processes over 1 — both rows on workers booted before the sweep
    (``boot_pass_s``), so the ratio compares work, not interpreter
    start-up.  This benchmark uses a paper-sized partition (4,096
    buckets, 2,000 queries) regardless of the bench scale: per-service
    scheduler work grows with the pending-bucket count, so only a deep
    partition gives the worker processes enough real computation to
    amortise process startup.  The wall-clock assertion only makes sense
    when the host actually has cores to parallelise over, so it is gated
    on the CPU count; the JSON artifact records the measurement either
    way.
    """
    from repro.experiments.common import build_simulator, build_trace

    heavy_trace = build_trace("full")
    heavy_simulator = build_simulator("full")
    result = benchmark.pedantic(
        scaling.run,
        kwargs={
            "trace": heavy_trace,
            "simulator": heavy_simulator,
            "workers": (1, 4),
            "backend": "process",
        },
        rounds=1,
        iterations=1,
    )
    record_headline(benchmark, result)
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1
    benchmark.extra_info["backend"] = "process"
    # Ratcheted under its own name: the virtual sweeps above also record a
    # ``wall_speedup_4x``, but theirs are 0.05 s runs and stay unratcheted.
    benchmark.extra_info["process_wall_speedup_4x"] = benchmark.extra_info["wall_speedup_4x"]
    # Virtual-clock scheduling quality is backend-invariant.
    assert result.headline["speedup_4x"] > 1.5
    # The wall-clock measurement is always recorded in the bench JSON.
    assert "wall_speedup_4x" in result.headline
    assert result.headline["wall_speedup_4x"] > 0.0
    if (os.cpu_count() or 1) >= 4:
        # With real cores behind the processes, four shards must beat one
        # in measured wall-clock time.
        assert result.headline["wall_speedup_4x"] > 1.0
