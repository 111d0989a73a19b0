"""Sharded-run behaviour through the virtual backend: parity, correctness,
stealing and scaling.

Every run goes through ``make_backend("virtual").execute(ParallelRunSpec)``
— the one coordinator loop over in-process shards.  Stealing runs use a
window of two bucket reads so that the small traces here cross many
barriers and idle shards really steal.
"""

from collections import Counter

import pytest

from repro.core.baselines import NoShareScheduler
from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.core.workload_manager import WorkloadEntry
from repro.experiments.common import build_trace
from repro.parallel.backend import (
    ParallelRunSpec,
    ShardView,
    make_backend,
    run_steal_round,
)
from repro.parallel.engine import StealRecord
from repro.parallel.ipc import AdoptBucket, BucketQueueMeta, ReleasedBucket
from repro.sim.events import EventKind, WorkerEventLog
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.query import CrossMatchQuery

BUCKETS = 128


@pytest.fixture(scope="module")
def layout():
    partitioner = BucketPartitioner()
    return partitioner.partition_density(BUCKETS)


@pytest.fixture(scope="module")
def queries():
    config = TraceConfig(query_count=80, bucket_count=BUCKETS, seed=99)
    return TraceGenerator(config).generate().with_saturation(2.0).queries


def run_sharded(layout, queries, workers, policy=None, **kwargs):
    """One virtual-backend run of *queries* over *workers* shards."""
    config = SimulationConfig(bucket_count=len(layout))
    disk = calibrated_disk_for_bucket_read(
        config.bucket_megabytes, config.cost.tb_ms / 1000.0
    )
    spec = ParallelRunSpec(
        layout=layout,
        store=BucketStore(layout, disk),
        queries=queries,
        policy=policy or LifeRaftScheduler(SchedulerConfig(cost=config.cost)),
        config=EngineConfig(cache_buckets=config.cache_buckets, cost=config.cost),
        workers=workers,
        index=SpatialIndex([], rows=None, disk=None),
        steal_quantum_ms=config.cost.tb_ms * 2,
        **kwargs,
    )
    return make_backend("virtual").execute(spec)


def service_counts(outcome):
    """How many times each (query, bucket) pair was serviced."""
    counts = {}
    for record in outcome.services:
        for query_id in record.queries_served:
            pair = (query_id, record.bucket_index)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def expected_pairs(queries):
    return {
        (query.query_id, bucket) for query in queries for bucket in query.bucket_footprint
    }


@pytest.fixture(scope="module")
def zone_run(layout, queries):
    """The skewed cell most tests inspect: 4 zone shards, stealing on."""
    return run_sharded(layout, queries, workers=4, shard_strategy="zone")


class TestSingleWorkerParity:
    """A 1-shard run must reproduce the serial engine exactly."""

    def test_open_system_parity_through_simulator(self, queries):
        simulator = Simulator(SimulationConfig(bucket_count=BUCKETS))
        serial = simulator.execute(queries, RunSpec(alpha=0.25))
        parallel = simulator.execute(queries, RunSpec(alpha=0.25, backend="virtual"))
        assert parallel.completed_queries == serial.completed_queries
        assert parallel.busy_time_s == pytest.approx(serial.busy_time_s, rel=1e-12)
        assert parallel.avg_response_time_s == pytest.approx(
            serial.avg_response_time_s, rel=1e-12
        )
        assert parallel.bucket_reads == serial.bucket_reads


class TestCorrectness:
    def test_all_queries_complete_once(self, layout, queries):
        outcome = run_sharded(layout, queries, workers=4)
        assert outcome.report.completed_queries == outcome.report.submitted_queries
        assert len(outcome.completed) == len(set(outcome.completed)), (
            "a query completed twice"
        )

    def test_no_bucket_entry_served_twice(self, layout, queries):
        """Each (query, bucket) workload entry is drained exactly once."""
        outcome = run_sharded(layout, queries, workers=4)
        counts = service_counts(outcome)
        assert set(counts) == expected_pairs(queries)
        assert all(count == 1 for count in counts.values()), (
            "some (query, bucket) pairs were serviced "
            f"{sorted(v for v in set(counts.values()) if v != 1)} times"
        )

    def test_worker_clocks_never_run_backwards(self, zone_run):
        """On every shard, a service starts no earlier than the previous
        one finished — steals and idle jumps only ever move a clock forward."""
        assert zone_run.steal_records
        clocks = {}
        for record in sorted(zone_run.services, key=lambda r: (r.worker_id, r.seq)):
            assert record.started_at_ms >= clocks.get(record.worker_id, 0.0) - 1e-9
            assert record.finished_at_ms >= record.started_at_ms
            clocks[record.worker_id] = record.finished_at_ms

    def test_duplicate_submission_rejected(self, layout, queries):
        with pytest.raises(ValueError, match="appears twice"):
            run_sharded(layout, [queries[0], queries[0]], workers=2)

    def test_zone_sharding_completes_everything(self, zone_run):
        report = zone_run.report
        assert report.completed_queries == report.submitted_queries


class TestWorkStealing:
    def test_steals_happen_on_skewed_shards(self, zone_run, queries):
        """Zone sharding over a skewed trace leaves some workers idle, so
        stealing must kick in — and everything still completes."""
        assert zone_run.steal_records, "expected at least one steal on a skewed workload"
        assert zone_run.report.completed_queries == len({q.query_id for q in queries})

    def test_stealing_disabled_means_no_steals(self, layout, queries):
        outcome = run_sharded(
            layout, queries, workers=4, shard_strategy="zone", enable_stealing=False
        )
        assert not outcome.steal_records
        assert outcome.report.completed_queries == outcome.report.submitted_queries

    @pytest.mark.parametrize("victim_clock_ms, migrates", ((41.0, True), (40.0, False)))
    def test_steal_improves_service_start(self, victim_clock_ms, migrates):
        """The steal rule: the thief may take the queue only if it can start
        it — at ``max(its clock, newest entry)`` — strictly before the
        victim's clock."""
        entries = (WorkloadEntry(1, 5, 10.0), WorkloadEntry(2, 5, 40.0))
        victim, thief = ShardView(0, ()), ShardView(1, ())
        victim.clock_ms, thief.clock_ms = victim_clock_ms, 25.0
        victim.pending = {3: BucketQueueMeta(3, 2, 10.0, 40.0)}
        victim.drained = False
        sent = []

        def request(worker_id, message):
            sent.append((worker_id, message))
            return ReleasedBucket(0, 3, entries, (), victim_clock_ms)

        steals = []
        run_steal_round([victim, thief], steals, WorkerEventLog(), request)
        assert bool(steals) == bool(sent) == migrates
        if migrates:
            assert steals == [StealRecord(40.0, 3, victim_id=0, thief_id=1, entry_count=2)]
            assert sent[1] == (1, AdoptBucket(3, entries, (), clock_ms=40.0))
            assert not victim.pending and 3 in thief.pending and thief.clock_ms == 40.0

    def test_stealing_does_not_lose_or_duplicate_completions(
        self, layout, queries, zone_run
    ):
        without = run_sharded(
            layout, queries, workers=4, shard_strategy="zone", enable_stealing=False
        )
        assert sorted(zone_run.completed) == sorted(without.completed)


class TestConstructedSkewStealing:
    """A hand-built skewed workload: one worker runs dry immediately while
    the other holds several deep bucket queues, forcing a steal whose
    mechanics we can assert exactly."""

    HEAVY_BUCKETS = (0, 2, 4)  # all owned by worker 0 under 2-way round robin
    HEAVY_QUERIES = 6

    @pytest.fixture(scope="class")
    def skewed(self):
        layout = BucketPartitioner().partition_density(8)
        queries = [
            CrossMatchQuery(
                query_id=i,
                bucket_footprint={bucket: 50 for bucket in self.HEAVY_BUCKETS},
                arrival_time_s=0.0,
            )
            for i in range(self.HEAVY_QUERIES)
        ]
        # One tiny query for worker 1 (bucket 1), so it runs dry at once.
        queries.append(
            CrossMatchQuery(
                query_id=self.HEAVY_QUERIES, bucket_footprint={1: 1}, arrival_time_s=0.0
            )
        )
        return run_sharded(layout, queries, workers=2), queries

    def test_starved_worker_emits_steal_record(self, skewed):
        outcome, _queries = skewed
        assert outcome.steal_records, "the dry worker must steal from the loaded one"
        record = outcome.steal_records[0]
        assert record.victim_id == 0
        assert record.thief_id == 1
        assert record.bucket_index in self.HEAVY_BUCKETS
        assert record.entry_count == self.HEAVY_QUERIES

    def test_stolen_queue_migrates_whole(self, skewed):
        """The thief services the stolen bucket in ONE batch carrying every
        entry of the migrated queue — batching is never split."""
        outcome, _queries = skewed
        for record in outcome.steal_records:
            on_bucket = [
                service
                for service in outcome.services
                if service.bucket_index == record.bucket_index
            ]
            assert [service.worker_id for service in on_bucket] == [record.thief_id], (
                "the stolen bucket was serviced by the victim, or more than once"
            )
            assert len(on_bucket[0].queries_served) == record.entry_count

    def test_no_query_serviced_twice_despite_steals(self, skewed):
        outcome, queries = skewed
        counts = service_counts(outcome)
        assert set(counts) == expected_pairs(queries)
        assert all(count == 1 for count in counts.values())
        assert outcome.report.completed_queries == len(queries)


class TestStealOwnershipTransfer:
    def test_future_arrivals_follow_stolen_bucket(self, zone_run, layout):
        """After a steal, new work for that bucket goes to the thief, so one
        bucket's queue is never split across two shards: every service of a
        bucket runs on its owner of the moment — the plan's, then whoever
        stole the queue last."""
        assert zone_run.steal_records
        stolen = {record.bucket_index for record in zone_run.steal_records}
        late_services = 0
        for service in zone_run.services:
            if service.bucket_index not in stolen:
                continue
            takeovers = [
                record
                for record in zone_run.steal_records
                if record.bucket_index == service.bucket_index
                and record.time_ms <= service.started_at_ms
            ]
            if takeovers:
                assert service.worker_id == takeovers[-1].thief_id
                late_services += 1
            else:
                first = next(
                    record
                    for record in zone_run.steal_records
                    if record.bucket_index == service.bucket_index
                )
                assert service.worker_id == first.victim_id
        assert late_services >= len(stolen)

    def test_arrival_order_policy_with_stealing_completes(self, layout, queries):
        """NoShare (per-query, arrival-order) + stealing must not strand
        adopted work behind the arrival cursor (regression test)."""
        outcome = run_sharded(
            layout, queries, workers=4, policy=NoShareScheduler(), shard_strategy="zone"
        )
        assert outcome.steal_records
        assert outcome.report.completed_queries == outcome.report.submitted_queries
        assert set(service_counts(outcome)) == expected_pairs(queries), (
            "work stranded behind the cursor"
        )


class TestDeterminism:
    def test_same_seed_same_run(self, layout):
        def run_once():
            config = TraceConfig(query_count=60, bucket_count=BUCKETS, seed=5)
            trace_queries = (
                TraceGenerator(config).generate().with_saturation(2.0).queries
            )
            outcome = run_sharded(layout, trace_queries, workers=4)
            return (
                outcome.completed,
                outcome.report.busy_time_ms,
                outcome.report.makespan_ms,
                outcome.steal_records,
                outcome.parallel.worker_services,
                outcome.window_boundaries_ms,
            )

        assert run_once() == run_once()


class TestEventStreams:
    def test_events_cover_arrivals_services_and_steals(self, zone_run, queries):
        counts = Counter(event.kind for _worker, event in zone_run.events.merged())
        assert counts[EventKind.QUERY_ARRIVAL] >= len(queries)
        assert counts[EventKind.SERVICE_COMPLETE] == zone_run.report.bucket_services
        assert counts[EventKind.WORK_STOLEN] == len(zone_run.steal_records) > 0
        merged = zone_run.events.merged()
        times = [event.time_ms for _worker, event in merged]
        assert times == sorted(times)


class TestScaling:
    def test_throughput_improves_monotonically_to_four_workers(self):
        trace = build_trace("small", seed=13)
        saturated = trace.with_saturation(8.0).queries
        simulator = Simulator(SimulationConfig(bucket_count=512))
        throughputs = []
        for workers in (1, 2, 4):
            result = simulator.execute(
                saturated, RunSpec(alpha=0.25, workers=workers, backend="virtual")
            )
            throughputs.append(result.throughput_qps)
        assert throughputs[0] < throughputs[1] < throughputs[2]
