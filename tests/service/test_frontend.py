"""Tests for the serving front-end: intake, backpressure, reports."""

import pytest

from repro.experiments.common import build_simulator, build_trace
from repro.service.frontend import ServiceConfig, ServingFrontEnd
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationResult
from repro.sim.stats import summarize_response_times

BUCKETS = 128


@pytest.fixture(scope="module")
def trace():
    return build_trace("small", query_count=60, bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def queries(trace):
    return tuple(trace.with_saturation(2.0).queries)


@pytest.fixture(scope="module")
def simulator():
    return build_simulator("small", bucket_count=BUCKETS)


def frontend(simulator, **kwargs):
    config = ServiceConfig(**kwargs)
    return ServingFrontEnd(config, simulator.layout, simulator.config.cost)


class TestIntake:
    def test_admit_all_passes_everything_at_arrival_time(self, simulator, queries):
        front = frontend(simulator)
        outcome = front.admit(queries)
        assert outcome.rejected == [] and outcome.deferrals == 0
        assert outcome.offered == len(outcome.admitted)
        for admission in outcome.admitted:
            assert admission.submit_ms == admission.arrival_ms
            assert admission.defers == 0
        # The admitted schedule replays the original arrival times.
        replayed = outcome.admitted_queries()
        assert [q.query_id for q in replayed] == [a.query.query_id for a in outcome.admitted]

    def test_intake_runs_once(self, simulator, queries):
        front = frontend(simulator)
        front.admit(queries)
        with pytest.raises(RuntimeError, match="already run"):
            front.admit(queries)
        with pytest.raises(RuntimeError, match="intake pass"):
            frontend(simulator).report()

    def test_reject_policy_sheds_excess_load(self, simulator, queries):
        front = frontend(simulator, admission="reject", intake_bound=4)
        outcome = front.admit(queries)
        assert outcome.rejected, "a saturated trace must trip a 4-deep intake bound"
        assert outcome.deferrals == 0
        assert outcome.offered == len(queries)
        for rejection in outcome.rejected:
            assert "intake_bound" in rejection.reason

    def test_defer_policy_retries_then_admits_or_rejects(self, simulator, queries):
        front = frontend(
            simulator,
            admission="defer",
            intake_bound=4,
            defer_delay_ms=30_000.0,
            max_defers=6,
        )
        outcome = front.admit(queries)
        assert outcome.deferrals > 0
        deferred_admissions = [a for a in outcome.admitted if a.defers > 0]
        assert deferred_admissions, "backpressure must eventually admit some retries"
        for admission in deferred_admissions:
            assert admission.submit_ms > admission.arrival_ms
        for rejection in outcome.rejected:
            assert rejection.defers == 6, "rejects only after the retry budget"

    def test_per_client_rate_limit(self, simulator, queries):
        front = frontend(simulator, admission="reject", max_client_qps=0.01, clients=2)
        outcome = front.admit(queries)
        assert outcome.rejected
        assert all("max_client_qps" in r.reason for r in outcome.rejected)
        totals = front.sessions.totals()
        assert totals["offered"] == outcome.offered
        assert totals["rejected"] == len(outcome.rejected)

    def test_admission_is_deterministic(self, simulator, queries):
        def admitted_ids(**kwargs):
            outcome = frontend(simulator, **kwargs).admit(queries)
            return [(a.query.query_id, a.submit_ms) for a in outcome.admitted]

        kwargs = dict(admission="reject", intake_bound=6, max_pending_buckets=40)
        assert admitted_ids(**kwargs) == admitted_ids(**kwargs)


class TestServingRuns:
    def test_default_serving_matches_plain_run(self, simulator, queries):
        plain = simulator.execute(queries, RunSpec(alpha=0.25))
        served = simulator.execute(queries, RunSpec(alpha=0.25, service=ServiceConfig()))
        assert served.serving is not None
        assert served.completed_queries == plain.completed_queries
        assert served.serving.completed == plain.completed_queries
        assert served.serving.rejection_rate == 0.0
        # Client-perceived completion equals the engine's response time
        # when nothing is deferred.
        assert served.serving.avg_time_to_completion_s == pytest.approx(
            plain.avg_response_time_s, rel=1e-12
        )
        # First results strictly precede full answers on multi-bucket queries.
        assert (
            served.serving.avg_time_to_first_result_s
            < served.serving.avg_time_to_completion_s
        )
        assert served.serving.chunks >= served.serving.completed

    def test_streams_complete_exactly_the_admitted_queries(self, simulator, queries):
        config = ServiceConfig(admission="reject", intake_bound=8)
        served = simulator.execute(queries, RunSpec(alpha=0.25, service=config))
        serving = served.serving
        assert serving.admitted + serving.rejected == serving.offered
        assert serving.completed == serving.admitted == served.completed_queries
        assert 0.0 < serving.rejection_rate < 1.0

    def test_deadline_rows_cover_all_offers(self, simulator, queries):
        config = ServiceConfig(admission="reject", intake_bound=8)
        served = simulator.execute(queries, RunSpec(alpha=0.25, service=config))
        rows = served.serving.deadline_rows
        admitted = sum(row[1] for row in rows)
        rejected = sum(row[2] for row in rows)
        assert admitted == served.serving.admitted
        assert rejected == served.serving.rejected
        for _name, _adm, _rej, completed, first_sla, completion_sla in rows:
            assert 0.0 <= first_sla <= 1.0 and 0.0 <= completion_sla <= 1.0
            assert completed >= 0

    def test_chunk_callback_fires_live(self, simulator, queries):
        seen = []
        config = ServiceConfig(on_chunk=seen.append)
        served = simulator.execute(queries, RunSpec(alpha=0.25, service=config))
        assert len(seen) == served.serving.chunks
        times = [chunk.time_ms for chunk in seen]
        assert times == sorted(times)


class TestZeroCompletedRuns:
    """Aggressive admission control can legitimately complete zero
    queries; every derived statistic must stay finite (regression for the
    zero-completed guards)."""

    @pytest.fixture(scope="class")
    def zero_run(self, simulator, queries):
        config = ServiceConfig(admission="reject", max_client_qps=1e-9)
        return simulator.execute(queries, RunSpec(alpha=0.25, service=config))

    def test_everything_is_rejected(self, zero_run):
        serving = zero_run.serving
        assert serving.admitted == 0
        assert serving.completed == 0
        assert serving.rejection_rate == 1.0

    def test_simulation_result_statistics_are_zero_safe(self, zero_run):
        assert zero_run.completed_queries == 0
        assert zero_run.avg_response_time_s == 0.0
        assert zero_run.response_time_cov == 0.0
        assert zero_run.throughput_qps == 0.0

    def test_serving_report_statistics_are_zero_safe(self, zero_run):
        serving = zero_run.serving
        assert serving.avg_time_to_first_result_s == 0.0
        assert serving.avg_time_to_completion_s == 0.0
        assert serving.ttfr_stats.count == 0
        assert serving.deadline_summary["first_result_hit_rate"] == 0.0

    def test_empty_simulation_result_construction(self):
        """A hand-built zero-completed result (what a fully shed parallel
        run produces) exposes no division by zero anywhere."""
        result = SimulationResult(
            policy_name="liferaft",
            alpha=0.25,
            submitted_queries=0,
            completed_queries=0,
            makespan_s=0.0,
            busy_time_s=0.0,
            throughput_qps=0.0,
            response_stats=summarize_response_times([]),
            cache_hit_rate=0.0,
            bucket_services=0,
            bucket_reads=0,
            strategy_counts={},
            total_io_s=0.0,
            total_match_s=0.0,
        )
        assert result.avg_response_time_s == 0.0
        assert result.response_time_cov == 0.0

    def test_empty_report_rejection_rate(self, simulator):
        """Serving an empty trace offers nothing and rejects nothing."""
        served = simulator.execute((), RunSpec(alpha=0.25, service=ServiceConfig()))
        serving = served.serving
        assert serving.offered == 0
        assert serving.rejection_rate == 0.0
        assert serving.chunks == 0
