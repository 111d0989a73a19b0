"""Benchmarks of the checkpoint/recovery subsystem.

Two measurements over the materialised-store path (real page reads and
columnar decodes per service, so checkpoint I/O competes with real work):

* **steady-state overhead** — an every-window checkpoint cadence versus
  the same run with reliability off, reported as the relative wall-clock
  cost of durability with no crashes;
* **recovery cost** — a crash-injected run, reporting the real recovery
  latency and the re-executed services next to the parity-checked result.

The overhead benchmark also records ``shard_checkpoint_bytes``: the size of
shard 0's ``.lrcp`` file at its middle checkpoint barrier.  The run is
deterministic, so the figure is too; ``BENCH_recovery.json`` ratchets it, so
a checkpoint that starts carrying more than live state again fails CI.
"""

import pytest

from benchmarks.conftest import record_headline
from repro.experiments import recovery
from repro.experiments.common import build_simulator, build_trace
from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS, Simulator
from repro.storage.ingest import materialize_layout

#: Physical rows per bucket of the benchmark store.
BENCH_ROWS_PER_BUCKET = 128
#: Window quantum in bucket reads: several barriers per run.
WINDOW_BUCKET_READS = 4.0
WORKERS = 2


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory, scale):
    """A materialised store plus a saturated trace for the recovery benches."""
    simulator = build_simulator(scale)
    trace = build_trace(scale)
    path = tmp_path_factory.mktemp("bench-recovery") / "site.lrbs"
    materialize_layout(path, simulator.layout, rows_per_bucket=BENCH_ROWS_PER_BUCKET)
    replayed = trace.with_saturation(8.0)
    return Simulator(simulator.config, store_path=path), replayed


def test_bench_checkpoint_overhead(benchmark, bench_setup):
    """Every-window checkpointing vs no reliability: the price of durability."""
    simulator, trace = bench_setup
    quantum_ms = simulator.config.cost.tb_ms * WINDOW_BUCKET_READS
    baseline = simulator.execute(
        trace.queries,
        RunSpec(policy="liferaft", workers=WORKERS, enable_stealing=False),
    )

    def reliable_run():
        return simulator.execute(
            trace.queries,
            RunSpec(
                policy="liferaft",
                workers=WORKERS,
                enable_stealing=False,
                reliability=ReliabilityConfig(
                    cadence="windows:1", window_quantum_ms=quantum_ms
                ),
            ),
        )

    result = benchmark.pedantic(reliable_run, rounds=3, iterations=1)
    report = result.reliability
    assert report is not None
    assert report.checkpoints_written > 0
    assert report.crashes_injected == 0
    # Durability must not change a single virtual-clock number.
    for field in VIRTUAL_CLOCK_PARITY_FIELDS:
        assert getattr(result, field) == getattr(baseline, field), field
    benchmark.extra_info["checkpoints"] = report.checkpoints_written
    benchmark.extra_info["checkpoint_kib"] = round(report.checkpoint_bytes / 1024.0, 1)
    marks = [mark for mark in report.checkpoint_marks if mark.worker_id == 0]
    benchmark.extra_info["shard_checkpoint_bytes"] = marks[len(marks) // 2].byte_size
    benchmark.extra_info["checkpoint_real_s"] = round(report.checkpoint_real_s, 4)
    if baseline.real_elapsed_s > 0:
        benchmark.extra_info["overhead_vs_plain"] = round(
            result.real_elapsed_s / baseline.real_elapsed_s, 3
        )


def test_bench_crash_recovery_latency(benchmark, bench_setup):
    """A crash-injected run: real recovery latency on the file-backed path."""
    simulator, trace = bench_setup
    quantum_ms = simulator.config.cost.tb_ms * WINDOW_BUCKET_READS
    baseline = simulator.execute(
        trace.queries,
        RunSpec(policy="liferaft", workers=WORKERS, enable_stealing=False),
    )

    def crashed_run():
        return simulator.execute(
            trace.queries,
            RunSpec(
                policy="liferaft",
                workers=WORKERS,
                enable_stealing=False,
                reliability=ReliabilityConfig(
                    cadence="windows:2",
                    faults=FaultPlan.parse("1@2"),
                    window_quantum_ms=quantum_ms,
                ),
            ),
        )

    result = benchmark.pedantic(crashed_run, rounds=3, iterations=1)
    report = result.reliability
    assert report is not None
    assert report.crashes_injected == 1
    assert report.recovery_count == 1
    for field in VIRTUAL_CLOCK_PARITY_FIELDS:
        assert getattr(result, field) == getattr(baseline, field), field
    benchmark.extra_info["recovery_real_s"] = round(report.recovery_real_s, 4)
    benchmark.extra_info["services_replayed"] = report.services_replayed


def test_bench_recovery_experiment(benchmark, scale):
    """The full cadence sweep, recorded for the JSON artifact."""
    result = benchmark.pedantic(
        recovery.run,
        kwargs={"scale": scale, "cadences": ("windows:1", "windows:8")},
        rounds=1,
        iterations=1,
    )
    record_headline(benchmark, result)
    assert all(row[-1] == "yes" for row in result.rows), "cadence sweep lost parity"
