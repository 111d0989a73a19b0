"""Cadence policies and deterministic fault plans."""

import pytest

from repro.reliability.config import ReliabilityConfig
from repro.reliability.faults import FaultEvent, FaultPlan
from repro.reliability.policy import EveryKWindows, VirtualInterval, parse_cadence


class TestEveryKWindows:
    def test_first_barrier_always_checkpoints(self):
        policy = EveryKWindows(4)
        assert policy.due(0, 0.0)

    def test_stride_semantics(self):
        policy = EveryKWindows(3)
        decisions = [policy.due(w, float(w)) for w in range(10)]
        assert decisions == [True, False, False, True, False, False, True, False, False, True]

    def test_rejects_non_positive_stride(self):
        with pytest.raises(ValueError):
            EveryKWindows(0)


class TestVirtualInterval:
    def test_first_barrier_always_checkpoints(self):
        policy = VirtualInterval(1000.0)
        assert policy.due(0, 0.0)

    def test_waits_for_virtual_time(self):
        policy = VirtualInterval(1000.0)
        assert policy.due(0, 0.0)
        assert not policy.due(1, 400.0)
        assert not policy.due(2, 999.0)
        assert policy.due(3, 1000.0)
        assert not policy.due(4, 1500.0)
        assert policy.due(5, 2100.0)

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            VirtualInterval(0.0)


class TestParseCadence:
    def test_windows_spec(self):
        policy = parse_cadence("windows:5")
        assert isinstance(policy, EveryKWindows)
        assert policy.k == 5

    def test_bare_integer_is_windows(self):
        policy = parse_cadence("7")
        assert isinstance(policy, EveryKWindows)
        assert policy.k == 7

    def test_interval_spec(self):
        policy = parse_cadence("interval:2500")
        assert isinstance(policy, VirtualInterval)
        assert policy.interval_ms == 2500.0

    @pytest.mark.parametrize("bad", ["", "often", "epochs:3", "windows:x"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cadence(bad)

    def test_instances_are_independent(self):
        first = parse_cadence("windows:2")
        second = parse_cadence("windows:2")
        assert first.due(0, 0.0)
        assert second.due(0, 0.0)  # its own state, not the first's


class TestFaultPlan:
    def test_parse_single_and_comma_list(self):
        plan = FaultPlan.parse("1@3,0@5")
        assert FaultEvent("kill", 3, 1) in plan.events
        assert FaultEvent("kill", 5, 0) in plan.events
        assert FaultEvent("kill", 3, 0) not in plan.events
        assert len(plan) == 2
        assert plan.events == (FaultEvent("kill", 3, 1), FaultEvent("kill", 5, 0))

    def test_parse_repeated_flags(self):
        plan = FaultPlan.parse(["2@1", "0@0"])
        assert plan.events == (FaultEvent("kill", 0, 0), FaultEvent("kill", 1, 2))

    @pytest.mark.parametrize(
        "bad",
        ["3", "a@b", "1@", "@2", "-1@2", "1@-2", "1@2:join", "@2:leave", "1@2:stop"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("").events == ()

    def test_repr_lists_crash_specs(self):
        assert "1@3" in repr(FaultPlan.parse("1@3"))
        assert "none" in repr(FaultPlan())

    def test_events_are_in_barrier_order(self):
        # Within a window: kills, then joins, then departures.
        plan = FaultPlan.parse("0@2:leave,@2:join,1@2,0@1")
        assert [event.spec for event in plan.events] == ["0@1", "1@2", "@2:join", "0@2:leave"]

    @pytest.mark.parametrize(
        "specs",
        [
            "1@3",
            "1@3,1@3,0@5",  # a duplicate kill collapses
            "2@1:leave,2@1:leave",  # so does a duplicate departure
            "@3:join,@3:join,@6:join",  # repeated joins count
            "1@2:leave,@4:join,3@6,0@6:kill",
        ],
    )
    def test_specs_round_trip(self, specs):
        plan = FaultPlan.parse(specs)
        again = FaultPlan.parse(",".join(event.spec for event in plan.events))
        assert again == plan and hash(again) == hash(plan)

    def test_duplicates_collapse_but_joins_count(self):
        assert len(FaultPlan.parse("1@3,1@3,1@3:kill")) == 1
        assert len(FaultPlan.parse("0@1:leave,0@1:leave")) == 1
        assert FaultPlan.parse("@3:join,@3:join").count("join") == 2


class TestReliabilityConfig:
    def test_bad_cadence_fails_fast(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(cadence="sometimes")

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(window_quantum_ms=0.0)

    def test_policies_built_per_call(self):
        config = ReliabilityConfig(cadence="windows:2")
        first = config.build_policy()
        second = config.build_policy()
        assert first is not second
        assert config.faults == FaultPlan()


class TestFaultPlanValidate:
    def test_valid_plans_pass(self):
        # Worker 2 joins at window 1 and is killed at window 3.
        FaultPlan.parse("2@3,0@1:leave,@1:join").validate(2, enable_stealing=True)

    def test_crash_beyond_the_pool_is_rejected(self):
        with pytest.raises(ValueError, match="0-based"):
            FaultPlan.parse("2@1").validate(2, enable_stealing=False)

    def test_scale_up_needs_stealing(self):
        plan = FaultPlan.parse("@1:join")
        with pytest.raises(ValueError, match="work stealing"):
            plan.validate(2, enable_stealing=False)
        plan.validate(2, enable_stealing=True)

    def test_scale_plan_must_be_executable(self):
        with pytest.raises(ValueError, match="empties the worker pool"):
            FaultPlan.parse("0@1:leave,1@1:leave").validate(2, enable_stealing=True)

    def test_kill_after_the_target_departed_is_rejected(self):
        # Worker 1 leaves at barrier 2; a kill at window 5 could never fire.
        with pytest.raises(ValueError, match="crash 1@5 .* not active at window 5"):
            FaultPlan.parse("1@5,1@2:leave").validate(3, enable_stealing=True)
        # A kill in the departure's own window lands before it leaves.
        FaultPlan.parse("1@2,1@2:leave").validate(3, enable_stealing=True)

    def test_kill_before_the_target_joined_is_rejected(self):
        # Worker 3 joins at barrier 4; a kill at window 1 could never fire,
        # nor one at window 4 itself (a window's kills land before its joins).
        for kill in ("3@1", "3@4"):
            with pytest.raises(ValueError, match="not active"):
                FaultPlan.parse(f"{kill},@4:join").validate(3, enable_stealing=True)
        FaultPlan.parse("3@5,@4:join").validate(3, enable_stealing=True)


class TestCoordinatorValidation:
    def test_out_of_range_crash_worker_fails_fast(self):
        from repro.sim.runspec import RunSpec
        from repro.sim.simulator import SimulationConfig, Simulator
        from repro.workload.generator import TraceConfig, TraceGenerator

        trace = TraceGenerator(
            TraceConfig(query_count=8, bucket_count=32, seed=9)
        ).generate()
        simulator = Simulator(SimulationConfig(bucket_count=32))
        with pytest.raises(ValueError, match="0-based"):
            simulator.execute(
                trace.queries,
                RunSpec(
                    workers=2,
                    enable_stealing=False,
                    reliability=ReliabilityConfig(faults=FaultPlan.parse("5@0")),
                ),
            )
