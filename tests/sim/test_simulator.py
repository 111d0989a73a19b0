"""Tests for the trace-replay simulator."""

import pytest

from repro.sim.runspec import RunSpec
from repro.sim.simulator import POLICY_NAMES, SimulationConfig, Simulator, make_policy
from repro.workload.generator import TraceConfig, TraceGenerator


@pytest.fixture(scope="module")
def small_trace():
    return TraceGenerator(TraceConfig(query_count=60, bucket_count=128, seed=17)).generate()


@pytest.fixture(scope="module")
def simulator():
    return Simulator(SimulationConfig(bucket_count=128))


class TestMakePolicy:
    def test_all_policy_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name) is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("fifo")

    def test_liferaft_alpha_passed_through(self):
        assert make_policy("liferaft", alpha=0.75).alpha == 0.75


class TestSimulationConfig:
    def test_bucket_count_validated(self):
        with pytest.raises(ValueError):
            SimulationConfig(bucket_count=0)


class TestSimulatorRuns:
    def test_every_query_completes(self, small_trace, simulator):
        result = simulator.execute(
            small_trace.with_saturation(0.5).queries, RunSpec(alpha=0.25)
        )
        assert result.submitted_queries == len(small_trace)
        assert result.completed_queries == len(small_trace)
        assert result.response_stats.count == len(small_trace)
        assert result.throughput_qps > 0
        assert result.makespan_s > 0
        assert result.busy_time_s > 0

    def test_runs_are_deterministic(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        first = simulator.execute(queries, RunSpec(alpha=0.5))
        second = simulator.execute(queries, RunSpec(alpha=0.5))
        assert first.throughput_qps == pytest.approx(second.throughput_qps)
        assert first.avg_response_time_s == pytest.approx(second.avg_response_time_s)
        assert first.bucket_reads == second.bucket_reads

    def test_sharing_reads_fewer_buckets_than_noshare(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        shared = simulator.execute(queries, RunSpec(alpha=0.0))
        unshared = simulator.execute(queries, RunSpec(policy="noshare"))
        assert shared.bucket_reads < unshared.bucket_reads
        assert shared.busy_time_s < unshared.busy_time_s
        assert shared.throughput_qps >= unshared.throughput_qps

    def test_policy_instance_can_be_passed_directly(self, small_trace, simulator):
        policy = make_policy("round_robin")
        result = simulator.execute(
            small_trace.with_saturation(0.5).queries, RunSpec(policy=policy)
        )
        assert result.policy_name == "round_robin"
        assert result.completed_queries == len(small_trace)

    def test_higher_saturation_never_reduces_busy_time_accuracy(self, small_trace, simulator):
        slow = simulator.execute(small_trace.with_saturation(0.05).queries, RunSpec(alpha=0.0))
        fast = simulator.execute(small_trace.with_saturation(5.0).queries, RunSpec(alpha=0.0))
        # Same total work, but the slow replay stretches over a longer makespan.
        assert slow.makespan_s > fast.makespan_s
        assert slow.completed_queries == fast.completed_queries

    def test_results_carry_the_run_alpha(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        results = [simulator.execute(queries, RunSpec(alpha=alpha)) for alpha in (0.0, 1.0)]
        assert [r.alpha for r in results] == [0.0, 1.0]
        assert [r.policy_name for r in results] == ["liferaft(alpha=0)", "liferaft(alpha=1)"]


class TestPolicyComparison:
    def test_baselines_report_their_name_and_no_alpha(self, small_trace, simulator):
        queries = small_trace.with_saturation(1.0).queries
        for name in ("noshare", "round_robin"):
            result = simulator.execute(queries, RunSpec(policy=name))
            assert result.policy_name == name
            assert result.alpha is None
            assert result.completed_queries == len(small_trace)

    def test_headline_claim_shared_beats_noshare(self, small_trace, simulator):
        queries = small_trace.with_saturation(1.0).queries
        shared = simulator.execute(queries, RunSpec(alpha=0.0))
        unshared = simulator.execute(queries, RunSpec(policy="noshare"))
        assert shared.throughput_qps > unshared.throughput_qps
        assert shared.avg_response_time_s < unshared.avg_response_time_s
