"""The telemetry subsystem's headline guarantees, end to end.

Two contracts pinned down here:

* **Zero perturbation** — instrumentation never moves the virtual
  clock: a run with telemetry disabled produces the identical
  ``result_digest`` (it only loses the snapshot attachment).
* **Virtual-domain parity** — the virtual-domain half of the merged
  snapshot is bit-identical across the serial engine, the
  ``VirtualBackend`` and the ``ProcessBackend`` at any fixed worker
  count with stealing off, and identical between a crash-injected
  recovery run and its uninterrupted twin (checkpointed counters are
  restored and replay re-counts exactly).
"""

import pytest

from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.telemetry.registry import (
    SNAPSHOT_VERSION,
    VIRTUAL_DOMAIN,
    filter_domain,
    metric_value,
    snapshot_to_json,
)
from repro.workload.generator import TraceConfig, TraceGenerator
from tests.telemetry.helpers import sum_metric

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)
#: Window quantum in bucket-read units: fine enough that reliability
#: runs span several barriers, so the crash plan below actually fires.
WINDOW_BUCKET_READS = 4.0


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def simulator(sim_config):
    return Simulator(sim_config)


@pytest.fixture(scope="module")
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def virtual_json(result):
    """The parity-checked half of a result's snapshot, canonically encoded."""
    return snapshot_to_json(filter_domain(result.telemetry, VIRTUAL_DOMAIN))


@pytest.fixture(scope="module")
def serial_result(simulator, timed_queries):
    return simulator.execute(timed_queries, RunSpec())


@pytest.fixture(scope="module")
def backend_results(simulator, timed_queries):
    results = {}
    for backend in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            spec = RunSpec(backend=backend, workers=workers, enable_stealing=False)
            results[(backend, workers)] = simulator.execute(timed_queries, spec)
    return results


class TestZeroPerturbation:
    def test_serial_digest_unchanged_with_telemetry_off(
        self, simulator, timed_queries, serial_result
    ):
        off = simulator.execute(timed_queries, RunSpec(telemetry=False))
        assert off.telemetry is None
        assert serial_result.telemetry is not None
        assert off.result_digest == serial_result.result_digest

    def test_parallel_digest_unchanged_with_telemetry_off(
        self, simulator, timed_queries, backend_results
    ):
        off = simulator.execute(
            timed_queries,
            RunSpec(backend="virtual", workers=2, enable_stealing=False, telemetry=False),
        )
        assert off.telemetry is None
        assert off.result_digest == backend_results[("virtual", 2)].result_digest


class TestCrossBackendParity:
    def test_serial_matches_virtual_single_worker(self, serial_result, backend_results):
        assert virtual_json(serial_result) == virtual_json(backend_results[("virtual", 1)])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_virtual_matches_process(self, backend_results, workers):
        virtual = backend_results[("virtual", workers)]
        process = backend_results[("process", workers)]
        assert virtual.result_digest == process.result_digest
        assert virtual_json(virtual) == virtual_json(process)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_snapshot_shape(self, backend_results, workers):
        snapshot = backend_results[("virtual", workers)].telemetry
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["metrics"], "instrumented run produced no metrics"


class TestSnapshotMatchesResult:
    """The merged counters agree with the result's own accounting."""

    def test_serial_counters_match_parity_fields(self, serial_result):
        snapshot = serial_result.telemetry
        assert (
            metric_value(snapshot, "engine.queries_completed")
            == serial_result.completed_queries
        )
        assert metric_value(snapshot, "engine.services") == serial_result.bucket_services
        assert metric_value(snapshot, "store.bucket_reads") == serial_result.bucket_reads

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_merged_worker_counters_match_parity_fields(self, backend_results, workers):
        result = backend_results[("virtual", workers)]
        snapshot = result.telemetry
        # Each bucket service is counted exactly once, on the shard that
        # ran it, so the merged totals match the run's accounting.
        assert metric_value(snapshot, "engine.services") == result.bucket_services
        assert sum_metric(snapshot, "engine.strategy_services") == result.bucket_services
        # Shard-local completions: a query spanning several shards
        # completes once per shard, so the merged counter is bounded
        # below by the distinct-query count (equal at one worker).
        assert metric_value(snapshot, "engine.queries_completed") >= result.completed_queries
        if workers == 1:
            assert (
                metric_value(snapshot, "engine.queries_completed")
                == result.completed_queries
            )


class TestCrashTelemetryParity:
    @pytest.fixture(scope="class")
    def reliability_pair(self, simulator, timed_queries, sim_config):
        quantum_ms = sim_config.cost.tb_ms * WINDOW_BUCKET_READS

        def run(faults):
            return simulator.execute(
                timed_queries,
                RunSpec(
                    workers=2,
                    enable_stealing=False,
                    reliability=ReliabilityConfig(
                        cadence="windows:1",
                        faults=faults,
                        window_quantum_ms=quantum_ms,
                    ),
                ),
            )

        return run(None), run(FaultPlan.parse("1@1"))

    def test_crash_actually_fired(self, reliability_pair):
        _clean, crashed = reliability_pair
        assert crashed.reliability is not None
        assert crashed.reliability.crashes_injected > 0
        assert crashed.reliability.recovery_count == crashed.reliability.crashes_injected

    def test_virtual_domain_identical_to_clean_run(self, reliability_pair):
        clean, crashed = reliability_pair
        assert crashed.result_digest == clean.result_digest
        assert virtual_json(crashed) == virtual_json(clean)

    def test_real_domain_records_the_reliability_story(self, reliability_pair):
        clean, crashed = reliability_pair
        snapshot = crashed.telemetry
        assert (
            metric_value(snapshot, "reliability.crashes_injected")
            == crashed.reliability.crashes_injected
        )
        assert (
            metric_value(snapshot, "reliability.recoveries")
            == crashed.reliability.recovery_count
        )
        assert metric_value(snapshot, "reliability.checkpoints_written") > 0
        # The clean twin has checkpoints but no crash counters at all.
        assert metric_value(clean.telemetry, "reliability.crashes_injected") == 0
        assert metric_value(clean.telemetry, "coordinator.windows") > 0
