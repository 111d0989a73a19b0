"""Planned elasticity: scale events preserve the completion set.

The elasticity contract generalises PR 5's crash parity: a run that
shrinks and grows its worker pool at window barriers must complete
exactly the queries the static run completes — no query lost when a
departing shard evacuates its queues, none duplicated when a cold shard
steals its way into the work.  Per-query finish times and cache-dependent
totals legitimately shift as capacity changes, so (unlike crash parity)
only the completion set is pinned.
"""

import pytest

from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec
from repro.reliability import FaultEvent, FaultPlan, ReliabilityConfig
from repro.reliability.runtime import ShardCoordinator
from repro.sim.simulator import SimulationConfig
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.registry import metric_value
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 64
WORKERS = 3
WINDOW_BUCKET_READS = 4.0
#: Mid-run shrink then grow: worker 1 leaves at window 2, one joins at 4.
ELASTIC_PLAN = "1@2:leave,@4:join"


class TestLeaveAndJoinEvents:
    def test_scale_down_validates_and_round_trips_its_spec(self):
        event = FaultEvent("leave", window_index=3, worker_id=1)
        assert event.spec == "1@3:leave"
        assert FaultEvent.parse("1@3:leave") == event
        with pytest.raises(ValueError, match="worker ids"):
            FaultEvent("leave", window_index=0, worker_id=-1)
        with pytest.raises(ValueError, match="window indices"):
            FaultEvent("leave", window_index=-1, worker_id=0)

    def test_scale_up_validates_and_round_trips_its_spec(self):
        assert FaultEvent("join", window_index=4).spec == "@4:join"
        assert FaultEvent.parse("@4:join") == FaultEvent("join", window_index=4)
        with pytest.raises(ValueError, match="window indices"):
            FaultEvent("join", window_index=-2)


class TestElasticPlans:
    def test_parse_accepts_comma_lists_and_repeated_flags(self):
        plan = FaultPlan.parse(
            ["1@2:leave,0@5:leave", "2@2:leave", "@3:join", "@3:join,@6:join"]
        )
        assert [event.spec for event in plan.events] == [
            "1@2:leave",
            "2@2:leave",
            "@3:join",
            "@3:join",
            "0@5:leave",
            "@6:join",
        ]
        assert plan.count("leave") == 3
        assert plan.count("join") == 3
        assert len(plan) == 6 and bool(plan)

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="WORKER@WINDOW"):
            FaultPlan.parse("3:leave")
        with pytest.raises(ValueError, match="invalid event spec"):
            FaultPlan.parse("a@b:leave")
        with pytest.raises(ValueError, match="invalid event spec"):
            FaultPlan.parse("@soon:join")

    def test_empty_plan_is_falsy(self):
        plan = FaultPlan.parse("")
        assert not plan and len(plan) == 0
        plan.validate(1, enable_stealing=False)  # vacuously fine

    def test_validate_rejects_departed_or_unknown_targets(self):
        with pytest.raises(ValueError, match="not active"):
            FaultPlan.parse("5@1:leave").validate(2, enable_stealing=True)
        with pytest.raises(ValueError, match="not active"):
            FaultPlan.parse("0@1:leave,0@3:leave").validate(2, enable_stealing=True)

    def test_validate_rejects_emptying_the_pool(self):
        with pytest.raises(ValueError, match="empties the worker pool"):
            FaultPlan.parse("0@1:leave,1@1:leave").validate(2, enable_stealing=True)
        # A join at the same window keeps the pool alive (joins first).
        FaultPlan.parse("0@1:leave,1@1:leave,@1:join").validate(2, enable_stealing=True)

    def test_joins_take_sequential_ids(self):
        # The joiner at window 1 becomes worker 2 and may depart later.
        FaultPlan.parse("2@3:leave,@1:join").validate(2, enable_stealing=True)
        with pytest.raises(ValueError, match="not active"):
            FaultPlan.parse("2@0:leave,@1:join").validate(2, enable_stealing=True)


@pytest.fixture(scope="module")
def layout():
    return BucketPartitioner().partition_density(BUCKETS)


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def build_spec(layout, sim_config, queries, workers, **kwargs):
    disk = calibrated_disk_for_bucket_read(
        sim_config.bucket_megabytes, sim_config.cost.tb_ms / 1000.0
    )
    return ParallelRunSpec(
        layout=layout,
        store=BucketStore(layout, disk),
        queries=queries,
        policy=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        config=EngineConfig(cache_buckets=sim_config.cache_buckets, cost=sim_config.cost),
        workers=workers,
        shard_strategy="round_robin",
        enable_stealing=True,
        **kwargs,
    )


def reliability_config(sim_config, plan=""):
    return ReliabilityConfig(
        cadence="windows:2",
        faults=FaultPlan.parse(plan),
        window_quantum_ms=sim_config.cost.tb_ms * WINDOW_BUCKET_READS,
    )


@pytest.fixture(scope="module")
def static_outcomes(layout, sim_config, timed_queries):
    return {
        name: ShardCoordinator(
            build_spec(layout, sim_config, timed_queries, WORKERS), name
        ).execute()
        for name in ("virtual", "process")
    }


@pytest.fixture(scope="module")
def elastic_outcomes(layout, sim_config, timed_queries):
    return {
        name: ShardCoordinator(
            build_spec(
                layout,
                sim_config,
                timed_queries,
                WORKERS,
                reliability=reliability_config(sim_config, ELASTIC_PLAN),
            ),
            name,
        ).execute()
        for name in ("virtual", "process")
    }


@pytest.mark.parametrize("backend_name", ("virtual", "process"))
class TestElasticParity:
    def test_scale_events_actually_fired(self, elastic_outcomes, backend_name):
        report = elastic_outcomes[backend_name].reliability
        assert report is not None
        assert report.scale_downs == 1
        assert report.scale_ups == 1
        kinds = [(event.kind, event.worker_id, event.window_index) for event in report.scale_events]
        assert ("down", 1, 2) in kinds
        assert ("up", WORKERS, 4) in kinds

    def test_departure_migrated_real_work(self, elastic_outcomes, backend_name):
        report = elastic_outcomes[backend_name].reliability
        (down,) = [event for event in report.scale_events if event.kind == "down"]
        assert down.buckets_migrated > 0
        assert down.entries_migrated >= down.buckets_migrated

    def test_completion_set_matches_static_run(
        self, elastic_outcomes, static_outcomes, backend_name
    ):
        elastic = elastic_outcomes[backend_name]
        static = static_outcomes[backend_name]
        assert elastic.report.completed_queries == static.report.completed_queries
        assert elastic.report.response_times_ms.keys() == static.report.response_times_ms.keys()

    def test_every_query_completes(self, elastic_outcomes, backend_name, timed_queries):
        outcome = elastic_outcomes[backend_name]
        assert outcome.report.completed_queries == len(timed_queries)
        assert outcome.coverage() == static_coverage(timed_queries)


def static_coverage(queries):
    return {q.query_id: frozenset(q.bucket_footprint) for q in queries}


class TestScaleUpOnly:
    def test_joiner_steals_its_way_to_real_work(self, layout, sim_config, timed_queries):
        spec = build_spec(
            layout,
            sim_config,
            timed_queries,
            2,
            reliability=reliability_config(sim_config, "@1:join"),
        )
        outcome = ShardCoordinator(spec, "virtual").execute()
        assert outcome.reliability.scale_ups == 1
        assert len(outcome.results) == 3
        assert metric_value(outcome.results[2].telemetry, "engine.busy_ms") > 0.0
        assert outcome.report.completed_queries == len(timed_queries)

    def test_scale_up_requires_stealing(self, layout, sim_config, timed_queries):
        spec = build_spec(
            layout,
            sim_config,
            timed_queries,
            2,
            reliability=reliability_config(sim_config, "@1:join"),
        )
        object.__setattr__(spec, "enable_stealing", False)
        with pytest.raises(ValueError, match="work stealing"):
            ShardCoordinator(spec, "virtual").execute()


class TestMixedFaultsAndScale:
    def test_crash_recovery_composes_with_scale_events(
        self, layout, sim_config, timed_queries, static_outcomes
    ):
        spec = build_spec(
            layout,
            sim_config,
            timed_queries,
            WORKERS,
            reliability=reliability_config(sim_config, f"{ELASTIC_PLAN},0@1"),
        )
        outcome = ShardCoordinator(spec, "virtual").execute()
        report = outcome.reliability
        assert report.crashes_injected == 1
        assert report.recovery_count == 1
        assert report.scale_downs == 1 and report.scale_ups == 1
        assert frozenset(outcome.report.response_times_ms) == frozenset(
            static_outcomes["virtual"].report.response_times_ms
        )

    def test_crash_point_may_target_a_joined_worker(self, layout, sim_config, timed_queries):
        # Worker 3 only exists after the join at window 1; crashing it at
        # window 3 exercises the broadened crash-point validation.
        spec = build_spec(
            layout,
            sim_config,
            timed_queries,
            WORKERS,
            reliability=reliability_config(sim_config, "@1:join,3@3"),
        )
        outcome = ShardCoordinator(spec, "virtual").execute()
        assert outcome.reliability.crashes_injected == 1
        assert outcome.report.completed_queries == len(timed_queries)

    def test_crash_point_beyond_the_pool_is_rejected(self, layout, sim_config, timed_queries):
        spec = build_spec(
            layout,
            sim_config,
            timed_queries,
            WORKERS,
            reliability=reliability_config(sim_config, "7@1"),
        )
        with pytest.raises(ValueError, match="crash"):
            ShardCoordinator(spec, "virtual").execute()
