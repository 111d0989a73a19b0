"""Cadence policies and deterministic fault plans."""

import pytest

from repro.reliability.config import ReliabilityConfig
from repro.reliability.elastic import ScalePlan
from repro.reliability.faults import CrashPoint, FaultPlan
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
        assert plan.crash_due(1, 3)
        assert plan.crash_due(0, 5)
        assert not plan.crash_due(0, 3)
        assert len(plan) == 2
        assert plan.crashes == (CrashPoint(1, 3), CrashPoint(0, 5))

    def test_parse_repeated_flags(self):
        plan = FaultPlan.parse(["2@1", "0@0"])
        assert plan.crash_due(2, 1) and plan.crash_due(0, 0)

    @pytest.mark.parametrize("bad", ["3", "a@b", "1@", "@2", "-1@2", "1@-2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("").crashes == ()

    def test_repr_lists_crash_specs(self):
        assert "1@3" in repr(FaultPlan.parse("1@3"))
        assert "none" in repr(FaultPlan())


class TestReliabilityConfig:
    def test_bad_cadence_fails_fast(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(cadence="sometimes")

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(window_quantum_ms=0.0)

    def test_bad_recovery_budget_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(max_recoveries_per_worker=0)

    def test_policies_built_per_call(self):
        config = ReliabilityConfig(cadence="windows:2")
        first = config.build_policy()
        second = config.build_policy()
        assert first is not second
        assert config.fault_plan() == FaultPlan()


class TestReliabilityConfigValidate:
    def test_valid_plans_pass(self):
        config = ReliabilityConfig(
            faults=FaultPlan.parse("2@3"), scale=ScalePlan.parse("0@1", "1")
        )
        config.validate(2, enable_stealing=True)  # worker 2 joins at window 1

    def test_crash_beyond_the_pool_is_rejected(self):
        config = ReliabilityConfig(faults=FaultPlan.parse("2@1"))
        with pytest.raises(ValueError, match="0-based"):
            config.validate(2, enable_stealing=False)

    def test_scale_up_needs_stealing(self):
        config = ReliabilityConfig(scale=ScalePlan.parse("", "1"))
        with pytest.raises(ValueError, match="work stealing"):
            config.validate(2, enable_stealing=False)
        config.validate(2, enable_stealing=True)

    def test_scale_plan_must_be_executable(self):
        config = ReliabilityConfig(scale=ScalePlan.parse("0@1,1@1"))
        with pytest.raises(ValueError, match="empties the worker pool"):
            config.validate(2, enable_stealing=True)


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
