"""Sharded-run behaviour through the virtual backend: parity, correctness,
stealing and scaling.

Every run goes through ``ShardCoordinator(ParallelRunSpec, "virtual")``
— the one coordinator loop over in-process shards.  Stealing runs use a
window of two bucket reads so that the small traces here cross many
barriers and idle shards really steal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import NoShareScheduler
from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.core.workload_manager import WorkloadEntry
from repro.experiments.common import build_trace
from repro.parallel.backend import ParallelRunSpec, ShardView, run_steal_round
from repro.parallel.engine import StealRecord
from repro.parallel.ipc import AdoptBucket, BucketQueueMeta, ReleasedBucket
from repro.reliability import ReliabilityConfig
from repro.reliability.runtime import ShardCoordinator
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.ledger import ledger_entries
from repro.telemetry.registry import metric_value
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.query import CrossMatchQuery
from tests.conftest import record_outcomes

BUCKETS = 128
#: The bucket-read time of every run here; ``run_sharded`` steals every two.
TB_MS = SimulationConfig(bucket_count=BUCKETS).cost.tb_ms


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
        steal_quantum_ms=config.cost.tb_ms * 2,
        **kwargs,
    )
    return ShardCoordinator(spec, "virtual").execute()


def service_counts(outcome):
    """How many times each (query, bucket) pair was serviced."""
    counts = {}
    for record in outcome.services:
        for query_id in record.queries_served:
            pair = (query_id, record.bucket_index)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def served_queries(outcome):
    """Every query id the service log served at least once."""
    return {query_id for record in outcome.services for query_id in record.queries_served}


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
        # One completion per served query: the report and the service log agree.
        assert set(outcome.report.response_times_ms) == served_queries(outcome)
        assert len(outcome.report.response_times_ms) == outcome.report.completed_queries

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

        steals = [record for record, _adopt in run_steal_round([victim, thief], request)]
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
        assert sorted(zone_run.report.response_times_ms) == sorted(
            without.report.response_times_ms
        )

    @pytest.mark.parametrize(
        "reliability, window_reads",
        ((ReliabilityConfig(window_quantum_ms=TB_MS * 5), 5.0), (None, 2.0)),
        ids=("reliability", "stealing-only"),
    )
    def test_a_run_windows_at_its_own_quantum(self, layout, queries, reliability, window_reads):
        """The window rule: a reliability run's ``window_quantum_ms`` wins
        over the steal window it also sets; a run without one windows at
        ``steal_quantum_ms``.  The first barrier lies one window past the
        first arrival."""
        outcome = run_sharded(layout, queries, workers=2, reliability=reliability)
        first_arrival_ms = min(query.arrival_time_s for query in queries) * 1000.0
        assert outcome.window_boundaries_ms[0] == pytest.approx(
            first_arrival_ms + TB_MS * window_reads, rel=1e-12
        )


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
                list(outcome.report.response_times_ms),
                outcome.report.busy_time_ms,
                outcome.report.makespan_ms,
                outcome.steal_records,
                [metric_value(result.telemetry, "engine.services") for result in outcome.results],
                outcome.window_boundaries_ms,
            )

        assert run_once() == run_once()


class TestRunRecord:
    def test_services_steals_and_results_agree(self, zone_run, queries):
        """A run's records are its service log, its steal records and one
        result per shard; each fact is in one of them, and they agree."""
        results = zone_run.results
        assert [result.worker_id for result in results] == [0, 1, 2, 3]
        assert zone_run.report.submitted_queries == len(queries)
        assert len(zone_run.services) == zone_run.report.bucket_services
        services = [metric_value(result.telemetry, "engine.services") for result in results]
        assert sum(services) == zone_run.report.bucket_services
        steals = metric_value(zone_run.telemetry, "coordinator.steals")
        assert steals == len(zone_run.steal_records) > 0
        order = [(r.finished_at_ms, r.worker_id, r.seq) for r in zone_run.services]
        assert order == sorted(order)
        assert set(zone_run.report.response_times_ms) == served_queries(zone_run)


LAW_BUCKETS = 64


def law_trace(seed):
    config = TraceConfig(query_count=40, bucket_count=LAW_BUCKETS, seed=seed)
    return TraceGenerator(config).generate().with_saturation(2.0).queries


def last_finish_ms(services):
    """Each served query's latest service finish, from the service log."""
    last = {}
    for record in services:
        for query_id in record.queries_served:
            last[query_id] = max(last.get(query_id, 0.0), record.finished_at_ms)
    return last


def assert_completion_law(queries, backend, **spec_fields):
    """``arrival + response == max(finish of its services) == ledger
    completion_ms`` for every query of one run through ``Simulator.execute``."""
    simulator = Simulator(SimulationConfig(bucket_count=LAW_BUCKETS))
    # Recorded per call, not by the fixture: hypothesis runs one test
    # function many times over, and a fixture would span them all.
    with pytest.MonkeyPatch.context() as patch:
        outcomes = record_outcomes(patch)
        result = simulator.execute(queries, RunSpec(backend=backend, **spec_fields))
    (outcome,) = outcomes
    responses = outcome.report.response_times_ms
    last = last_finish_ms(outcome.services)
    ledger = ledger_entries(result.ledger)
    assert set(responses) == set(last) == set(ledger)
    arrivals = {query.query_id: query.arrival_time_s * 1000.0 for query in queries}
    for query_id, finish_ms in last.items():
        assert arrivals[query_id] + responses[query_id] == pytest.approx(finish_ms, rel=1e-12)
        assert ledger[query_id]["completion_ms"] == finish_ms


class TestCompletionLaw:
    """A sharded query completes at the finish of its last-finishing service."""

    def test_seed_99_queries_complete_at_their_last_finish(self, layout, queries):
        outcome = run_sharded(layout, queries, workers=4)
        responses = outcome.report.response_times_ms
        last = last_finish_ms(outcome.services)
        # Query 4's last-starting service is not its last-finishing one.
        assert responses[4] == pytest.approx(11_736.5, abs=0.05)
        arrivals = {query.query_id: query.arrival_time_s * 1000.0 for query in queries}
        early = [q for q in responses if arrivals[q] + responses[q] < last[q] - 1e-9]
        assert len(responses) == 80
        assert early == []

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from((1, 2, 4)),
        shard_strategy=st.sampled_from(("round_robin", "zone")),
        stealing=st.booleans(),
    )
    def test_every_virtual_run_obeys_the_law(self, seed, workers, shard_strategy, stealing):
        assert_completion_law(
            law_trace(seed),
            "virtual",
            workers=workers,
            shard_strategy=shard_strategy,
            enable_stealing=stealing,
        )

    def test_a_process_run_obeys_the_law(self):
        assert_completion_law(law_trace(7), "process", workers=2)


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
