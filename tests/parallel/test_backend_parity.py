"""Cross-backend parity: serial engine vs virtual backend vs process backend.

The execution backends promise that *where* the shard workers run changes
only the real wall clock, never the virtual-clock outcome.  This harness
pins that promise down by replaying one seeded workload three ways —
through the serial :class:`~repro.core.engine.LifeRaftEngine`, the
in-process :class:`~repro.parallel.backend.VirtualBackend`, and the
multiprocessing :class:`~repro.parallel.backend.ProcessBackend` — across
worker counts {1, 2, 4} and both shard strategies, asserting

* identical completion sets (every query finishes exactly once),
* identical per-query bucket coverage (each (query, bucket) pair is
  serviced exactly once, by exactly one shard),
* matching aggregate virtual-clock accounting: busy time, I/O and match
  cost totals, service and bucket-read counts, join-strategy counts.

The workload is a *closed batch* (every arrival at t=0), which makes the
aggregate accounting invariant under shard count and steal schedule: each
bucket's workload queue is complete before any service, so every bucket
is serviced exactly once at identical cost wherever it runs.  A second,
open-system workload (timed arrivals) checks the stronger property that
each shard's *timeline* — every batch's start and finish — is bit-for-bit
identical across backends, with stealing off and, at a window tight
enough that shards really steal, with stealing on: one coordinator drives
both backends, so digests, steal schedule and window boundaries are equal.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec, ProcessBackend, make_backend
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner
from repro.workload.generator import TraceConfig, TraceGenerator
from tests.parallel.test_coordinator_golden import (  # noqa: F401 (fixtures)
    RecordingProcess,
    RecordingVirtual,
    observe,
    quantum_ms,
    queries,
    simulator,
    store_path,
)

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)
STRATEGIES = ("round_robin", "zone")


@pytest.fixture(scope="module")
def layout():
    return BucketPartitioner().partition_density(BUCKETS)


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def engine_config(sim_config):
    return EngineConfig(cache_buckets=sim_config.cache_buckets, cost=sim_config.cost)


@pytest.fixture(scope="module")
def batch_queries(layout):
    """A seeded closed batch: every query arrives at t=0."""
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=7)
    trace = TraceGenerator(config).generate()
    return tuple(dataclasses.replace(q, arrival_time_s=0.0) for q in trace.queries)


@pytest.fixture(scope="module")
def timed_queries(layout):
    """A seeded open-system trace with real arrival times."""
    config = TraceConfig(query_count=50, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def build_store(layout, sim_config):
    disk = calibrated_disk_for_bucket_read(
        sim_config.bucket_megabytes, sim_config.cost.tb_ms / 1000.0
    )
    return BucketStore(layout, disk)


def build_spec(layout, sim_config, engine_config, queries, workers, strategy, **kwargs):
    return ParallelRunSpec(
        layout=layout,
        store=build_store(layout, sim_config),
        queries=queries,
        policy=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        config=engine_config,
        workers=workers,
        shard_strategy=strategy,
        index=SpatialIndex([], rows=None, disk=None),
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference(layout, sim_config, engine_config, batch_queries):
    """The serial engine's outcome on the closed batch."""
    engine = LifeRaftEngine(
        layout,
        build_store(layout, sim_config),
        scheduler=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        index=SpatialIndex([], rows=None, disk=None),
        config=engine_config,
    )
    for query in batch_queries:
        engine.submit(query)
    while engine.process_next() is not None:
        pass
    coverage = {}
    for batch in engine.batches:
        for query_id in batch.queries_served:
            coverage.setdefault(query_id, set()).add(batch.work_item.bucket_index)
    return {
        "report": engine.report(),
        "completed": frozenset(engine.manager.completed_queries()),
        "coverage": {qid: frozenset(buckets) for qid, buckets in coverage.items()},
        "bucket_reads": engine.store.reads,
    }


@pytest.fixture(scope="module")
def backend_outcomes(layout, sim_config, engine_config, batch_queries):
    """Every (backend, workers, strategy) cell of the parity matrix."""
    outcomes = {}
    for backend_name in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            for strategy in STRATEGIES:
                spec = build_spec(
                    layout, sim_config, engine_config, batch_queries, workers, strategy
                )
                outcomes[(backend_name, workers, strategy)] = make_backend(
                    backend_name
                ).execute(spec)
    return outcomes


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend_name", ("virtual", "process"))
class TestClosedBatchParity:
    def test_completion_set_matches_serial(
        self, backend_outcomes, serial_reference, backend_name, workers, strategy
    ):
        outcome = backend_outcomes[(backend_name, workers, strategy)]
        assert frozenset(outcome.completed) == serial_reference["completed"]
        # Completion order lists each query exactly once.
        assert len(outcome.completed) == len(set(outcome.completed))

    def test_per_query_bucket_coverage_matches_serial(
        self, backend_outcomes, serial_reference, backend_name, workers, strategy
    ):
        outcome = backend_outcomes[(backend_name, workers, strategy)]
        assert outcome.coverage() == serial_reference["coverage"]

    def test_no_service_is_duplicated(
        self, backend_outcomes, serial_reference, backend_name, workers, strategy
    ):
        outcome = backend_outcomes[(backend_name, workers, strategy)]
        seen = set()
        for record in outcome.services:
            for query_id in record.queries_served:
                pair = (query_id, record.bucket_index)
                assert pair not in seen, f"{pair} serviced twice"
                seen.add(pair)

    def test_virtual_clock_totals_match_serial(
        self, backend_outcomes, serial_reference, backend_name, workers, strategy
    ):
        outcome = backend_outcomes[(backend_name, workers, strategy)]
        report = outcome.report
        serial = serial_reference["report"]
        assert report.submitted_queries == serial.submitted_queries
        assert report.completed_queries == serial.completed_queries
        assert report.busy_time_ms == pytest.approx(serial.busy_time_ms, rel=1e-12)
        assert report.total_io_ms == pytest.approx(serial.total_io_ms, rel=1e-12)
        assert report.total_match_ms == pytest.approx(serial.total_match_ms, rel=1e-12)
        assert report.total_matches == serial.total_matches
        assert report.bucket_services == serial.bucket_services
        assert report.strategy_counts == serial.strategy_counts
        assert outcome.bucket_reads == serial_reference["bucket_reads"]

    def test_backends_agree_with_each_other(
        self, backend_outcomes, serial_reference, backend_name, workers, strategy
    ):
        """Stealing is on in these cells: same loop, same everything."""
        virtual = backend_outcomes[("virtual", workers, strategy)]
        process = backend_outcomes[("process", workers, strategy)]
        assert virtual.completed == process.completed
        assert virtual.services == process.services
        assert virtual.steal_records == process.steal_records
        assert virtual.window_boundaries_ms == process.window_boundaries_ms
        assert virtual.report.response_times_ms == process.report.response_times_ms
        assert virtual.report.busy_time_ms == process.report.busy_time_ms
        assert virtual.parallel.worker_clocks_ms == process.parallel.worker_clocks_ms
        assert virtual.bucket_reads == process.bucket_reads


class TestSingleWorkerExactness:
    """At one worker both backends must reproduce the serial engine exactly."""

    @pytest.mark.parametrize("backend_name", ("virtual", "process"))
    def test_response_times_match_serial(
        self, backend_outcomes, serial_reference, backend_name
    ):
        outcome = backend_outcomes[(backend_name, 1, "round_robin")]
        serial = serial_reference["report"]
        assert outcome.report.response_times_ms.keys() == serial.response_times_ms.keys()
        for query_id, expected in serial.response_times_ms.items():
            assert outcome.report.response_times_ms[query_id] == pytest.approx(
                expected, rel=1e-12
            )
        assert outcome.report.makespan_ms == pytest.approx(serial.makespan_ms, rel=1e-12)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestOpenSystemTimelineParity:
    """With stealing off, each shard is a pure function of its arrival
    schedule, so the process backend must reproduce the virtual backend's
    per-shard timelines bit for bit — starts, finishes, batch composition."""

    def test_exact_batch_timelines(
        self, layout, sim_config, engine_config, timed_queries, workers, strategy
    ):
        def run(backend_name):
            spec = build_spec(
                layout,
                sim_config,
                engine_config,
                timed_queries,
                workers,
                strategy,
                enable_stealing=False,
            )
            return make_backend(backend_name).execute(spec)

        virtual = run("virtual")
        process = run("process")

        def timeline(outcome):
            return sorted(
                (
                    record.worker_id,
                    record.seq,
                    record.bucket_index,
                    record.queries_served,
                    round(record.started_at_ms, 6),
                    round(record.finished_at_ms, 6),
                )
                for record in outcome.services
            )

        assert timeline(virtual) == timeline(process)
        assert virtual.report.response_times_ms.keys() == (
            process.report.response_times_ms.keys()
        )
        for query_id, expected in virtual.report.response_times_ms.items():
            assert process.report.response_times_ms[query_id] == pytest.approx(
                expected, rel=1e-9
            )
        assert virtual.report.makespan_ms == pytest.approx(
            process.report.makespan_ms, rel=1e-9
        )


@pytest.mark.parametrize("file_backed", (False, True), ids=("memory", "lrbs"))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workers", (2, 4))
def test_stealing_on_is_bit_identical_across_backends(
    simulator, queries, quantum_ms, store_path, workers, strategy, file_backed
):
    """Timed arrivals, a four-bucket-read window, stealing on: result and
    ledger digests, steal tuples, window boundaries and the virtual-domain
    telemetry are equal, in memory and over an `.lrbs` file."""
    cells = [
        observe(
            simulator,
            queries,
            backend,
            shard_strategy=strategy,
            workers=workers,
            steal_quantum_ms=quantum_ms,
            store_path=store_path if file_backed else None,
        )
        for backend in (RecordingVirtual(), RecordingProcess())
    ]
    assert cells[0] == cells[1]
    assert cells[0]["steals"], "the cell must really exercise stealing"


class TestProcessBackendStealing:
    """Work stealing as message passing: a skewed closed batch must migrate
    queues between processes without losing or duplicating any service."""

    def test_steals_preserve_accounting(
        self, layout, sim_config, engine_config, serial_reference, batch_queries
    ):
        # A tight steal window forces frequent barriers so queue migration
        # definitely happens on this small batch.
        spec = build_spec(
            layout,
            sim_config,
            engine_config,
            batch_queries,
            4,
            "zone",
            steal_quantum_ms=sim_config.cost.tb_ms * 2,
        )
        outcome = ProcessBackend().execute(spec)
        assert outcome.steal_records, "expected steals on zone-sharded skew"
        for record in outcome.steal_records:
            assert record.entry_count > 0
            assert record.victim_id != record.thief_id
        assert frozenset(outcome.completed) == serial_reference["completed"]
        assert outcome.report.busy_time_ms == pytest.approx(
            serial_reference["report"].busy_time_ms, rel=1e-12
        )

    @pytest.mark.parametrize("backend_name", ("virtual", "process"))
    def test_parallel_report_is_consistent(self, backend_outcomes, backend_name):
        outcome = backend_outcomes[(backend_name, 4, "round_robin")]
        preport = outcome.parallel
        assert preport.workers == 4
        assert sum(preport.worker_busy_ms) == pytest.approx(
            outcome.report.busy_time_ms, rel=1e-12
        )
        assert preport.wall_clock_ms == max(preport.worker_clocks_ms)
        utilisation = sum(busy / preport.wall_clock_ms for busy in preport.worker_busy_ms) / 4
        assert 0.0 < utilisation <= 1.0
        assert sum(preport.worker_services) == outcome.report.bucket_services
        assert preport.steals == len(outcome.steal_records)
        assert outcome.real_elapsed_s > 0.0


class TestSimulatorBackendSelection:
    """`RunSpec.backend` exposes the seam end to end."""

    def test_virtual_and_process_agree_through_simulator(self, timed_queries):
        simulator = Simulator(SimulationConfig(bucket_count=BUCKETS))
        virtual = simulator.execute(
            timed_queries, RunSpec(workers=2, enable_stealing=False)
        )
        process = simulator.execute(
            timed_queries,
            RunSpec(workers=2, enable_stealing=False, backend="process"),
        )
        assert virtual.backend == "virtual"
        assert process.backend == "process"
        assert virtual.completed_queries == process.completed_queries
        assert virtual.busy_time_s == pytest.approx(process.busy_time_s, rel=1e-9)
        assert virtual.avg_response_time_s == pytest.approx(
            process.avg_response_time_s, rel=1e-9
        )
        assert virtual.bucket_reads == process.bucket_reads
        assert process.real_elapsed_s > 0.0

    def test_unknown_backend_rejected(self, timed_queries):
        simulator = Simulator(SimulationConfig(bucket_count=BUCKETS))
        with pytest.raises(ValueError, match="unknown execution backend"):
            simulator.execute(timed_queries, RunSpec(backend="quantum"))


class TestBackendEvents:
    """Merged per-worker event logs stay consistent on the process backend."""

    @pytest.mark.parametrize("backend_name", ("virtual", "process"))
    def test_event_counts(self, backend_outcomes, backend_name):
        from repro.sim.events import EventKind

        outcome = backend_outcomes[(backend_name, 2, "zone")]
        counts = Counter(event.kind for _worker, event in outcome.events.merged())
        assert counts[EventKind.SERVICE_COMPLETE] == outcome.report.bucket_services
        assert counts.get(EventKind.WORK_STOLEN, 0) == len(outcome.steal_records)
        assert counts[EventKind.QUERY_ARRIVAL] >= outcome.report.submitted_queries
        merged = outcome.events.merged()
        times = [event.time_ms for _worker, event in merged]
        assert times == sorted(times)
