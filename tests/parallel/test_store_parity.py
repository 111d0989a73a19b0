"""Store-tier parity: in-memory vs file-backed across every backend.

PR 4's contract is that the storage tier changes only *physical* work,
never a virtual-clock number.  This harness replays one seeded workload
through {in-memory, file-backed} × {serial engine, virtual backend,
process backend} for workers {1, 2, 4} and asserts

* identical completion sets,
* identical per-query bucket coverage,
* identical virtual-clock totals (busy time, I/O and match cost, service
  and bucket-read counts, strategy counts),

and that the file-backed cells actually performed physical reads.  On the
process backend the file travels as a path-based snapshot, so this also
pins down that worker children reopening the store read-only reproduce
the coordinator's in-memory accounting exactly.
"""

import pytest

from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec, make_backend
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.index import SpatialIndex
from repro.storage.ingest import materialize_layout
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 48
WORKER_COUNTS = (1, 2, 4)
ROWS_PER_BUCKET = 24


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def site(tmp_path_factory, sim_config):
    """The shared site: one layout, one ingested store file."""
    simulator = Simulator(sim_config)
    path = tmp_path_factory.mktemp("store") / "site.lrbs"
    manifest = materialize_layout(path, simulator.layout, rows_per_bucket=ROWS_PER_BUCKET)
    return simulator.layout, manifest.path


@pytest.fixture(scope="module")
def queries():
    """A seeded closed batch (every arrival at t=0).

    As in ``test_backend_parity``, a closed batch makes the aggregate
    accounting invariant under shard count and steal schedule, so one
    serial reference pins every cell of the store × backend matrix.
    """
    import dataclasses

    config = TraceConfig(query_count=30, bucket_count=BUCKETS, seed=11)
    trace = TraceGenerator(config).generate()
    return tuple(dataclasses.replace(q, arrival_time_s=0.0) for q in trace.queries)


def build_store(site, sim_config, file_backed):
    layout, path = site
    disk = calibrated_disk_for_bucket_read(
        sim_config.bucket_megabytes, sim_config.cost.tb_ms / 1000.0
    )
    if file_backed:
        return open_disk_store(path, disk)
    return BucketStore(layout, disk)


def serial_outcome(site, sim_config, queries, file_backed):
    layout, _ = site
    store = build_store(site, sim_config, file_backed)
    engine = LifeRaftEngine(
        layout,
        store,
        scheduler=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        index=SpatialIndex([], rows=None, disk=None),
        config=EngineConfig(cache_buckets=sim_config.cache_buckets, cost=sim_config.cost),
    )
    for query in queries:
        engine.submit(query)
    while engine.process_next() is not None:
        pass
    report = engine.report()
    coverage = {}
    for batch in engine.batches:
        for query_id in batch.queries_served:
            coverage.setdefault(query_id, set()).add(batch.work_item.bucket_index)
    return {
        "completed": frozenset(engine.manager.completed_queries()),
        "coverage": {qid: frozenset(b) for qid, b in coverage.items()},
        "busy_ms": report.busy_time_ms,
        "io_ms": report.total_io_ms,
        "match_ms": report.total_match_ms,
        "services": report.bucket_services,
        "strategy_counts": report.strategy_counts,
        "bucket_reads": store.reads,
        "physical_reads": getattr(store, "page_reads", 0),
    }


def backend_outcome(site, sim_config, queries, backend_name, workers, file_backed):
    layout, _ = site
    store = build_store(site, sim_config, file_backed)
    spec = ParallelRunSpec(
        layout=layout,
        store=store,
        queries=queries,
        policy=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        config=EngineConfig(cache_buckets=sim_config.cache_buckets, cost=sim_config.cost),
        workers=workers,
        shard_strategy="round_robin",
        index=SpatialIndex([], rows=None, disk=None),
    )
    outcome = make_backend(backend_name).execute(spec)
    return {
        "completed": frozenset(outcome.completed),
        "coverage": outcome.coverage(),
        "busy_ms": outcome.report.busy_time_ms,
        "io_ms": outcome.report.total_io_ms,
        "match_ms": outcome.report.total_match_ms,
        "services": outcome.report.bucket_services,
        "strategy_counts": outcome.report.strategy_counts,
        "bucket_reads": outcome.bucket_reads,
        "real_read_s": outcome.store_real_read_s,
    }


@pytest.fixture(scope="module")
def reference(site, sim_config, queries):
    """The in-memory serial engine: every other cell must match it."""
    return serial_outcome(site, sim_config, queries, file_backed=False)


def assert_matches(cell, reference):
    assert cell["completed"] == reference["completed"]
    assert cell["coverage"] == reference["coverage"]
    assert cell["busy_ms"] == pytest.approx(reference["busy_ms"], rel=1e-12)
    assert cell["io_ms"] == pytest.approx(reference["io_ms"], rel=1e-12)
    assert cell["match_ms"] == pytest.approx(reference["match_ms"], rel=1e-12)
    assert cell["services"] == reference["services"]
    assert cell["strategy_counts"] == reference["strategy_counts"]
    assert cell["bucket_reads"] == reference["bucket_reads"]


class TestSerialStoreParity:
    def test_file_backed_serial_matches_in_memory(self, site, sim_config, queries, reference):
        cell = serial_outcome(site, sim_config, queries, file_backed=True)
        assert_matches(cell, reference)
        assert cell["physical_reads"] > 0, "file-backed run never touched the file"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend_name", ("virtual", "process"))
class TestBackendStoreParity:
    def test_file_backed_matches_reference(
        self, site, sim_config, queries, reference, backend_name, workers
    ):
        cell = backend_outcome(site, sim_config, queries, backend_name, workers, file_backed=True)
        assert_matches(cell, reference)
        assert cell["real_read_s"] > 0.0, "file-backed run never touched the file"

    def test_in_memory_matches_reference(
        self, site, sim_config, queries, reference, backend_name, workers
    ):
        cell = backend_outcome(site, sim_config, queries, backend_name, workers, file_backed=False)
        assert_matches(cell, reference)


class TestSimulatorStoreSeam:
    """`Simulator(store_path=...)` exposes the tier end to end."""

    def test_run_parity_through_simulator(self, site, sim_config, queries):
        _, path = site
        simulator = Simulator(sim_config, store_path=path)
        file_backed = simulator.execute(queries, RunSpec())
        memory = simulator.execute(queries, RunSpec(store_path=None))
        assert file_backed.store_backend == "file"
        assert memory.store_backend == "memory"
        assert file_backed.completed_queries == memory.completed_queries
        assert file_backed.busy_time_s == pytest.approx(memory.busy_time_s, rel=1e-12)
        assert file_backed.total_io_s == pytest.approx(memory.total_io_s, rel=1e-12)
        assert file_backed.bucket_reads == memory.bucket_reads
        assert file_backed.real_read_s > 0.0

    def test_from_store_adopts_the_file_layout(self, site):
        layout, path = site
        simulator = Simulator.from_store(path)
        assert simulator.layout == layout
        assert simulator.config.bucket_count == BUCKETS

    def test_mismatched_bucket_count_rejected(self, site):
        _, path = site
        with pytest.raises(ValueError, match="buckets"):
            Simulator(SimulationConfig(bucket_count=BUCKETS + 1), store_path=path)

    def test_mismatched_layout_rejected(self, site, tmp_path, sim_config):
        # Same bucket count, different boundaries: caught by the deep check.
        other = Simulator(SimulationConfig(bucket_count=BUCKETS, objects_per_bucket=5_000))
        other_path = tmp_path / "other.lrbs"
        materialize_layout(other_path, other.layout, rows_per_bucket=4)
        simulator = Simulator(sim_config)
        with pytest.raises(ValueError, match="different partition"):
            simulator.execute([], RunSpec(store_path=other_path))
