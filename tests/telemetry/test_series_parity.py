"""Windowed time-series parity, end to end.

The series layer samples per-shard occupancy gauges at deterministic
virtual-time window barriers, rides the ``WorkerResult`` IPC seam and
the ``.lrcp`` checkpoint envelope, and merges order-insensitively.  The
contracts pinned here:

* the virtual-domain series are **bit-identical** across the serial
  engine and the ``"virtual"`` and ``"process"`` backends at any fixed
  worker count with stealing off;
* a crash-injected recovery run reproduces its uninterrupted twin's
  series exactly (the sampling cursor rides the checkpoint);
* sampling is **zero perturbation**: enabling the series layer at any
  cadence never moves the ``result_digest``.
"""

import pytest

from repro.reliability import FaultPlan, ReliabilityConfig
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain, snapshot_to_json
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)
#: Series barrier spacing in bucket-read units: fine enough that the
#: short parity trace crosses many barriers.
SERIES_BUCKET_READS = 4.0
#: Checkpoint quantum for the crash pair, in bucket-read units.
WINDOW_BUCKET_READS = 4.0


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def simulator(sim_config):
    return Simulator(sim_config)


@pytest.fixture(scope="module")
def series_window_ms(sim_config):
    return sim_config.cost.tb_ms * SERIES_BUCKET_READS


@pytest.fixture(scope="module")
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def series_entries(result):
    """All series entries of a result's snapshot, keyed by metric key."""
    return {
        key: entry
        for key, entry in result.telemetry["metrics"].items()
        if entry.get("type") == "series"
    }


def virtual_series_json(result):
    """Canonical encoding of the parity-checked series subset."""
    virtual = filter_domain(result.telemetry, VIRTUAL_DOMAIN)
    virtual["metrics"] = {
        key: entry
        for key, entry in virtual["metrics"].items()
        if entry.get("type") == "series"
    }
    return snapshot_to_json(virtual)


@pytest.fixture(scope="module")
def serial_result(simulator, timed_queries, series_window_ms):
    return simulator.execute(timed_queries, RunSpec(series_window_ms=series_window_ms))


@pytest.fixture(scope="module")
def backend_results(simulator, timed_queries, series_window_ms):
    results = {}
    for backend in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            spec = RunSpec(
                backend=backend,
                workers=workers,
                enable_stealing=False,
                series_window_ms=series_window_ms,
            )
            results[(backend, workers)] = simulator.execute(timed_queries, spec)
    return results


class TestSeriesShape:
    def test_serial_run_samples_the_shard_gauges(self, serial_result, series_window_ms):
        entries = series_entries(serial_result)
        names = {entry["name"] for entry in entries.values()}
        assert {
            "series.queue_depth",
            "series.backlog_buckets",
            "series.cache_buckets",
        } <= names
        for entry in entries.values():
            assert entry["window_ms"] == series_window_ms
            if entry["name"].startswith("series."):
                assert entry["samples"], f"{entry['name']} recorded no barriers"

    def test_samples_are_per_window_not_collapsed(self, serial_result):
        """Barrier indices ascend without duplicates: each window keeps
        its own value instead of folding into an end-of-run max."""
        for entry in series_entries(serial_result).values():
            indices = [index for index, _value in entry["samples"]]
            assert indices == sorted(set(indices))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_every_shard_reports_its_own_lane(self, backend_results, workers):
        entries = series_entries(backend_results[("virtual", workers)])
        shards = {
            entry["labels"]["shard"]
            for entry in entries.values()
            if entry["name"] == "series.queue_depth"
        }
        assert shards == {str(shard) for shard in range(workers)}


class TestSeriesBackendParity:
    def test_serial_matches_virtual_single_worker(self, serial_result, backend_results):
        assert virtual_series_json(serial_result) == virtual_series_json(
            backend_results[("virtual", 1)]
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_virtual_matches_process(self, backend_results, workers):
        virtual = backend_results[("virtual", workers)]
        process = backend_results[("process", workers)]
        assert virtual.result_digest == process.result_digest
        assert virtual_series_json(virtual) == virtual_series_json(process)


class TestSeriesZeroPerturbation:
    def test_sampling_cadence_never_moves_the_digest(
        self, simulator, timed_queries, serial_result
    ):
        bare = simulator.execute(timed_queries, RunSpec())
        assert bare.result_digest == serial_result.result_digest

    def test_parallel_digest_unchanged_by_series(
        self, simulator, timed_queries, backend_results
    ):
        bare = simulator.execute(
            timed_queries, RunSpec(backend="virtual", workers=2, enable_stealing=False)
        )
        assert bare.result_digest == backend_results[("virtual", 2)].result_digest


class TestSeriesCrashParity:
    @pytest.fixture(scope="class")
    def reliability_pair(self, simulator, timed_queries, sim_config, series_window_ms):
        quantum_ms = sim_config.cost.tb_ms * WINDOW_BUCKET_READS

        def run(faults):
            return simulator.execute(
                timed_queries,
                RunSpec(
                    workers=2,
                    enable_stealing=False,
                    series_window_ms=series_window_ms,
                    reliability=ReliabilityConfig(
                        cadence="windows:1",
                        faults=faults,
                        window_quantum_ms=quantum_ms,
                    ),
                ),
            )

        return run(FaultPlan()), run(FaultPlan.parse("1@1"))

    def test_crash_actually_fired(self, reliability_pair):
        _clean, crashed = reliability_pair
        assert crashed.reliability is not None
        assert crashed.reliability.crashes_injected > 0

    def test_series_identical_to_clean_run(self, reliability_pair):
        """The sampling cursor rides the ``.lrcp`` envelope: recovery
        resumes exactly after the checkpointed barrier and replays the
        lost windows bit-identically."""
        clean, crashed = reliability_pair
        assert crashed.result_digest == clean.result_digest
        assert virtual_series_json(crashed) == virtual_series_json(clean)


class TestServingSeries:
    @pytest.fixture(scope="class")
    def served(self, simulator, timed_queries, series_window_ms):
        return simulator.execute(
            timed_queries,
            RunSpec(
                service=ServiceConfig(admission="defer", intake_bound=8),
                series_window_ms=series_window_ms,
            ),
        )

    def test_frontend_samples_pending_admissions(self, served, series_window_ms):
        entries = series_entries(served)
        pending = [
            entry
            for entry in entries.values()
            if entry["name"] == "series.pending_admissions"
        ]
        assert len(pending) == 1
        assert pending[0]["domain"] == VIRTUAL_DOMAIN
        assert pending[0]["window_ms"] == series_window_ms
        assert pending[0]["samples"]

    def test_sla_counters_match_the_serving_report(self, served):
        rows = served.serving.deadline_rows
        metrics = served.telemetry["metrics"]
        for name, admitted, rejected, completed, _first, _completion in rows:
            for field, expected in (
                ("admitted", admitted),
                ("rejected", rejected),
                ("completed", completed),
            ):
                entry = metrics[f"sla.{field}|class={name}"]
                assert entry["type"] == "counter"
                assert entry["value"] == expected

    def test_serving_digest_unchanged_by_series(self, simulator, timed_queries, served):
        bare = simulator.execute(
            timed_queries,
            RunSpec(service=ServiceConfig(admission="defer", intake_bound=8)),
        )
        assert bare.result_digest == served.result_digest
