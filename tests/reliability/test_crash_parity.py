"""The headline reliability invariant: crashes change nothing.

A crash-injected run with recovery must produce *identical* virtual-clock
results to an uninterrupted run — completion sets, per-query chunk
sequences, every parity field — across the serial engine, the virtual
backend and the process backend, workers {1, 2, 4}, with stealing off.
The schedule-purity property makes this possible; the checkpoint/restore
machinery makes it true; this harness pins it down.

With stealing **on** the same holds at digest level — steal schedule and
window boundaries included — at every checkpoint cadence, sparse ones
and cold restarts too, on both backends: a restored shard catches up at
the barriers it missed (``ShardCoordinator._catch_up``), so the sweep
below compares every crash cell with the clean golden cell.
"""

import pytest

from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec
from repro.reliability import FaultPlan, ReliabilityConfig
from repro.reliability.runtime import ShardCoordinator
from repro.service.streams import StreamHub
from repro.sim.runspec import RunSpec
from repro.sim.simulator import (
    VIRTUAL_CLOCK_PARITY_FIELDS,
    SimulationConfig,
    Simulator,
)
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner
from repro.workload.generator import TraceConfig, TraceGenerator
from tests.parallel.test_coordinator_golden import (  # noqa: F401 (fixtures)
    GOLDEN,
    observe,
    quantum_ms,
    queries,
    simulator,
)

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)
#: Window quantum: fine enough that every run spans several barriers, so
#: the crash plans below actually fire.
WINDOW_BUCKET_READS = 4.0
#: Per worker count: a deterministic crash plan that targets live shards.
CRASH_PLANS = {1: "0@1,0@3", 2: "1@1,0@3", 4: "1@1,3@2,0@4"}


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
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def build_store(layout, sim_config):
    disk = calibrated_disk_for_bucket_read(
        sim_config.bucket_megabytes, sim_config.cost.tb_ms / 1000.0
    )
    return BucketStore(layout, disk)


def build_spec(layout, sim_config, engine_config, queries, workers, **kwargs):
    return ParallelRunSpec(
        layout=layout,
        store=build_store(layout, sim_config),
        queries=queries,
        policy=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        config=engine_config,
        workers=workers,
        shard_strategy="round_robin",
        enable_stealing=False,
        **kwargs,
    )


def reliability_config(workers, cadence="windows:1", plan=None, tb_ms=1200.0):
    return ReliabilityConfig(
        cadence=cadence,
        faults=FaultPlan.parse(plan if plan is not None else CRASH_PLANS[workers]),
        window_quantum_ms=tb_ms * WINDOW_BUCKET_READS,
    )


def chunk_sequences(outcome, coverage, arrivals):
    """Derive every query's chunk sequence from an outcome's services."""
    hub = StreamHub()
    for query_id, buckets in coverage.items():
        hub.register(query_id, buckets, arrivals[query_id])
    hub.ingest_records(outcome.services)
    return {
        stream.query_id: tuple(
            (c.seq, c.bucket_index, c.objects_matched, round(c.time_ms, 6), c.final)
            for c in stream.chunks
        )
        for stream in hub.streams()
    }


@pytest.fixture(scope="module")
def serial_reference(layout, sim_config, engine_config, timed_queries):
    """The uninterrupted serial engine's outcome on the timed trace."""
    engine = LifeRaftEngine(
        layout,
        build_store(layout, sim_config),
        scheduler=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        index=SpatialIndex([], rows=None, disk=None),
        config=engine_config,
    )
    ordered = sorted(timed_queries, key=lambda q: (q.arrival_time_s, q.query_id))
    arrivals_ms = [q.arrival_time_s * 1000.0 for q in ordered]
    index, total = 0, len(ordered)
    now_ms = arrivals_ms[0] if ordered else 0.0
    while index < total or engine.has_pending_work():
        if not engine.has_pending_work() and index < total:
            now_ms = max(now_ms, arrivals_ms[index])
        while index < total and arrivals_ms[index] <= now_ms + 1e-9:
            engine.submit(ordered[index], now_ms=arrivals_ms[index])
            index += 1
        if not engine.has_pending_work():
            continue
        result = engine.process_next(now_ms)
        if result is None:
            break
        now_ms = result.finished_at_ms
    coverage = {}
    for batch in engine.loop.batches:
        for query_id in batch.queries_served:
            coverage.setdefault(query_id, set()).add(batch.work_item.bucket_index)
    return {
        "report": engine.report(),
        "completed": list(engine.manager.completed_queries()),
        "coverage": {qid: frozenset(b) for qid, b in coverage.items()},
        "arrivals": {q.query_id: q.arrival_time_s * 1000.0 for q in ordered},
        "bucket_reads": engine.store.reads,
    }


@pytest.fixture(scope="module")
def clean_outcomes(layout, sim_config, engine_config, timed_queries):
    """Uninterrupted runs of both backends at every worker count."""
    outcomes = {}
    for backend_name in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            spec = build_spec(layout, sim_config, engine_config, timed_queries, workers)
            outcomes[(backend_name, workers)] = ShardCoordinator(spec, backend_name).execute()
    return outcomes


@pytest.fixture(scope="module")
def crashed_outcomes(layout, sim_config, engine_config, timed_queries):
    """Crash-injected runs with recovery, both backends, every worker count."""
    outcomes = {}
    for backend_name in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            spec = build_spec(
                layout,
                sim_config,
                engine_config,
                timed_queries,
                workers,
                reliability=reliability_config(workers, tb_ms=sim_config.cost.tb_ms),
            )
            outcomes[(backend_name, workers)] = ShardCoordinator(spec, backend_name).execute()
    return outcomes


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend_name", ("virtual", "process"))
class TestCrashParity:
    def test_crashes_actually_happened(self, crashed_outcomes, backend_name, workers):
        outcome = crashed_outcomes[(backend_name, workers)]
        assert outcome.reliability is not None
        assert outcome.reliability.crashes_injected > 0
        assert outcome.reliability.recovery_count == outcome.reliability.crashes_injected
        assert outcome.reliability.checkpoints_written > 0

    def test_completion_sequence_matches_serial(
        self, crashed_outcomes, serial_reference, backend_name, workers
    ):
        outcome = crashed_outcomes[(backend_name, workers)]
        assert frozenset(outcome.report.response_times_ms) == frozenset(
            serial_reference["completed"]
        )
        assert len(outcome.report.response_times_ms) == outcome.report.completed_queries

    def test_chunk_sequences_match_clean_run(
        self, crashed_outcomes, clean_outcomes, serial_reference, backend_name, workers
    ):
        crashed = crashed_outcomes[(backend_name, workers)]
        clean = clean_outcomes[(backend_name, workers)]
        coverage = serial_reference["coverage"]
        arrivals = serial_reference["arrivals"]
        assert chunk_sequences(crashed, coverage, arrivals) == chunk_sequences(
            clean, coverage, arrivals
        )

    def test_virtual_clock_totals_match_clean_run(
        self, crashed_outcomes, clean_outcomes, backend_name, workers
    ):
        crashed = crashed_outcomes[(backend_name, workers)]
        clean = clean_outcomes[(backend_name, workers)]
        assert crashed.report.busy_time_ms == pytest.approx(
            clean.report.busy_time_ms, rel=1e-12
        )
        assert crashed.report.total_io_ms == pytest.approx(
            clean.report.total_io_ms, rel=1e-12
        )
        assert crashed.report.total_match_ms == pytest.approx(
            clean.report.total_match_ms, rel=1e-12
        )
        assert crashed.report.bucket_services == clean.report.bucket_services
        assert crashed.report.strategy_counts == clean.report.strategy_counts
        assert crashed.report.cache_hit_rate == pytest.approx(
            clean.report.cache_hit_rate, rel=1e-12
        )
        assert [r.store_reads for r in crashed.results] == [r.store_reads for r in clean.results]
        assert crashed.coverage() == clean.coverage()

    def test_exact_batch_timelines_match_clean_run(
        self, crashed_outcomes, clean_outcomes, backend_name, workers
    ):
        def timeline(outcome):
            return sorted(
                (
                    r.worker_id,
                    r.seq,
                    r.bucket_index,
                    r.queries_served,
                    round(r.started_at_ms, 6),
                    round(r.finished_at_ms, 6),
                )
                for r in outcome.services
            )

        assert timeline(crashed_outcomes[(backend_name, workers)]) == timeline(
            clean_outcomes[(backend_name, workers)]
        )

    def test_response_times_match_serial(
        self, crashed_outcomes, serial_reference, backend_name, workers
    ):
        outcome = crashed_outcomes[(backend_name, workers)]
        serial = serial_reference["report"]
        assert outcome.report.response_times_ms.keys() == serial.response_times_ms.keys()
        if workers == 1:
            for query_id, expected in serial.response_times_ms.items():
                assert outcome.report.response_times_ms[query_id] == pytest.approx(
                    expected, rel=1e-9
                )


class TestRecoveryThroughSimulator:
    """`RunSpec(reliability=...)` end to end, including parity fields."""

    def test_simulator_parity_fields(self, timed_queries, sim_config):
        simulator = Simulator(sim_config)
        clean = simulator.execute(
            timed_queries, RunSpec(workers=2, enable_stealing=False)
        )
        crashed = simulator.execute(
            timed_queries,
            RunSpec(
                workers=2,
                enable_stealing=False,
                reliability=reliability_config(2, tb_ms=sim_config.cost.tb_ms),
            ),
        )
        assert crashed.reliability is not None
        assert crashed.reliability.crashes_injected > 0
        for field in VIRTUAL_CLOCK_PARITY_FIELDS:
            assert getattr(crashed, field) == getattr(clean, field), field

    def test_sparse_cadence_loses_then_replays_work(self, timed_queries, sim_config):
        simulator = Simulator(sim_config)
        clean = simulator.execute(
            timed_queries, RunSpec(workers=2, enable_stealing=False)
        )
        crashed = simulator.execute(
            timed_queries,
            RunSpec(
                workers=2,
                enable_stealing=False,
                reliability=reliability_config(
                    2, cadence="windows:4", plan="1@3", tb_ms=sim_config.cost.tb_ms
                ),
            ),
        )
        report = crashed.reliability
        assert report is not None
        assert report.services_replayed > 0  # the sparse cadence lost work
        for field in VIRTUAL_CLOCK_PARITY_FIELDS:
            assert getattr(crashed, field) == getattr(clean, field), field

    def test_cold_restart_before_any_checkpoint(self, timed_queries, sim_config):
        simulator = Simulator(sim_config)
        clean = simulator.execute(
            timed_queries, RunSpec(workers=2, enable_stealing=False)
        )
        crashed = simulator.execute(
            timed_queries,
            RunSpec(
                workers=2,
                enable_stealing=False,
                reliability=reliability_config(
                    2, cadence="windows:2", plan="0@0", tb_ms=sim_config.cost.tb_ms
                ),
            ),
        )
        report = crashed.reliability
        assert report is not None
        assert report.recoveries[0].checkpoint_window == -1  # no checkpoint yet
        for field in VIRTUAL_CLOCK_PARITY_FIELDS:
            assert getattr(crashed, field) == getattr(clean, field), field

    def test_stealing_on_matches_clean_run_with_same_windows(self, timed_queries, sim_config):
        """Stealing on, a sparse cadence: the crash-injected run is the
        clean run over the same windows, bit for bit."""
        simulator = Simulator(sim_config)

        def run(faults):
            return simulator.execute(
                timed_queries,
                RunSpec(
                    workers=4,
                    reliability=reliability_config(
                        4, cadence="windows:3", plan=faults, tb_ms=sim_config.cost.tb_ms
                    ),
                ),
            )

        clean, crashed = run(""), run("1@2,3@3")
        assert crashed.reliability.crashes_injected == 2
        assert crashed.reliability.services_replayed > 0
        assert crashed.steals > 0
        assert crashed.result_digest == clean.result_digest
        for field in VIRTUAL_CLOCK_PARITY_FIELDS:
            assert getattr(crashed, field) == getattr(clean, field), field


#: Crash plans over the golden trace at 4 zone shards, stealing on.
STEALING_CRASH_PLANS = ("0@1,2@3", "1@2,1@5,3@4")


def crash_cell(simulator, queries, quantum_ms, outcomes, backend, cadence, plan, workers=4):
    """The golden (*workers*, stealing on) cell, run under a crash plan."""
    cell = observe(
        simulator,
        queries,
        outcomes,
        backend,
        workers=workers,
        steal_quantum_ms=quantum_ms,
        reliability=ReliabilityConfig(
            cadence=cadence, faults=FaultPlan.parse(plan), window_quantum_ms=quantum_ms
        ),
    )
    assert outcomes[-1].reliability.crashes_injected == len(FaultPlan.parse(plan))
    return cell


@pytest.mark.parametrize("plan", STEALING_CRASH_PLANS)
@pytest.mark.parametrize("backend", ("virtual", "process"))
def test_stealing_with_every_window_cadence_is_bit_identical(
    simulator, queries, quantum_ms, coordinator_outcomes, backend, plan
):
    """A checkpoint at window w already contains window w's steals (the
    steal round runs before the checkpoint round), so the catch-up must
    not replay them — double adoption inflated busy time and serviced
    duplicated entries.  With an every-window cadence the restored state
    equals the barrier state exactly, so a crash-injected stealing run is
    the clean run: digests, steal schedule, window boundaries."""
    cell = crash_cell(
        simulator, queries, quantum_ms, coordinator_outcomes, backend, "windows:1", plan
    )
    assert cell == GOLDEN[(4, True)]


def test_stealing_with_sparse_cadence_is_bit_identical(
    simulator, queries, quantum_ms, coordinator_outcomes
):
    """Crash + stealing + a cadence that skips barriers: the restored
    shard replays each post-checkpoint migration at its own barrier."""
    cell = crash_cell(
        simulator,
        queries,
        quantum_ms,
        coordinator_outcomes,
        "virtual",
        "windows:3",
        STEALING_CRASH_PLANS[0],
    )
    assert cell == GOLDEN[(4, True)]


#: (workers, backend, cadence, crash plan) over the golden trace, stealing
#: on: sparse and interval cadences whose recoveries replay lost work and
#: post-checkpoint migrations, and cold restarts (``0@0``: a crash before
#: any checkpoint), on both channel kinds.
CATCH_UP_CELLS = (
    (4, "virtual", "windows:3", "1@2,1@5,3@4"),
    (4, "virtual", "windows:1000", "0@1,2@3"),
    (4, "virtual", "interval:20000", "3@9,1@10"),
    (4, "virtual", "windows:2", "0@0"),
    (4, "process", "windows:5", "1@2,1@5,3@4"),
    (2, "virtual", "windows:3", "1@1,0@3"),
    (2, "virtual", "interval:20000", "0@8,1@11"),
    (2, "virtual", "windows:1000", "1@12"),
    (2, "process", "windows:3", "0@8,1@11"),
    (2, "process", "windows:2", "0@0"),
)


@pytest.mark.parametrize(
    "workers, backend, cadence, plan",
    CATCH_UP_CELLS,
    ids=[f"{w}-{b}-{c}-{p}" for w, b, c, p in CATCH_UP_CELLS],
)
def test_crash_with_stealing_equals_golden_at_any_cadence(
    simulator, queries, quantum_ms, coordinator_outcomes, workers, backend, cadence, plan
):
    cell = crash_cell(
        simulator, queries, quantum_ms, coordinator_outcomes, backend, cadence, plan, workers
    )
    report = coordinator_outcomes[-1].reliability
    if plan == "0@0":
        assert report.recoveries[0].checkpoint_window == -1  # cold restart
    else:
        assert report.services_replayed > 0  # the crash really lost work
    assert cell == GOLDEN[(workers, True)]


class TestRecoveryGuards:
    def test_checkpoint_dir_holds_one_shard_file_per_mark(
        self, timed_queries, sim_config, tmp_path
    ):
        """A run writes shard checkpoints only, and its counters count them."""
        simulator = Simulator(sim_config)
        target = tmp_path / "checkpoints"
        report = simulator.execute(
            timed_queries,
            RunSpec(
                workers=2,
                enable_stealing=False,
                reliability=ReliabilityConfig(
                    checkpoint_dir=str(target),
                    cadence="windows:2",
                    window_quantum_ms=sim_config.cost.tb_ms * WINDOW_BUCKET_READS,
                ),
            ),
        ).reliability
        files = {path.name: path.stat().st_size for path in target.iterdir()}
        marks = report.checkpoint_marks
        assert marks, "explicit checkpoint dirs must retain shard checkpoints"
        assert sorted(files) == sorted(
            f"shard{mark.worker_id:02d}-w{mark.window_index:06d}.lrcp" for mark in marks
        )
        assert sum(files.values()) == report.checkpoint_bytes
        assert report.checkpoints_written == len(marks)

    @pytest.mark.parametrize(
        "cadence, plan",
        [("windows:1", "1@1,0@3"), ("windows:3", "0@2"), ("interval:20000", "1@4")],
    )
    def test_a_crash_run_writes_shard_files_only(
        self, timed_queries, sim_config, tmp_path, cadence, plan
    ):
        """Recoveries read shard files and the coordinator's memory, so a
        crash run, like a clean one, leaves one shard file per mark."""
        target = tmp_path / "checkpoints"
        report = Simulator(sim_config).execute(
            timed_queries,
            RunSpec(
                workers=2,
                enable_stealing=False,
                reliability=ReliabilityConfig(
                    checkpoint_dir=str(target),
                    cadence=cadence,
                    faults=FaultPlan.parse(plan),
                    window_quantum_ms=sim_config.cost.tb_ms * WINDOW_BUCKET_READS,
                ),
            ),
        ).reliability
        assert report.recovery_count == len(FaultPlan.parse(plan))
        files = {path.name: path.stat().st_size for path in target.iterdir()}
        marks = report.checkpoint_marks
        assert sorted(files) == sorted(
            f"shard{mark.worker_id:02d}-w{mark.window_index:06d}.lrcp" for mark in marks
        )
        assert sum(files.values()) == report.checkpoint_bytes
        assert report.checkpoints_written == len(marks)
