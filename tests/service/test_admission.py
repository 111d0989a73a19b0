"""Tests for admission control, client sessions and deadline classes."""

import pytest

from repro.core.metrics import CostModel
from repro.service.admission import (
    AdmissionDecision,
    AdmissionLimits,
    AdmitAll,
    DeferPolicy,
    IntakeModel,
    IntakeSnapshot,
    RejectPolicy,
    make_admission_policy,
)
from repro.service.deadline import (
    DEADLINE_CLASSES,
    DeadlineTracker,
    assign_deadline_class,
    parse_deadline_mix,
)
from repro.service.sessions import SessionRegistry
from repro.workload.query import CrossMatchQuery


def snapshot(queue_depth=0, pending_buckets=0, client_rate_qps=0.0, now_ms=0.0):
    return IntakeSnapshot(
        now_ms=now_ms,
        queue_depth=queue_depth,
        pending_buckets=pending_buckets,
        client_rate_qps=client_rate_qps,
    )


class TestLimits:
    def test_breached_names_every_exceeded_limit(self):
        limits = AdmissionLimits(intake_bound=4, max_pending_buckets=10, max_client_qps=1.0)
        state = snapshot(queue_depth=4, pending_buckets=10, client_rate_qps=2.0)
        assert state.breached(limits) == [
            "intake_bound",
            "max_pending_buckets",
            "max_client_qps",
        ]
        assert snapshot(queue_depth=3, pending_buckets=9, client_rate_qps=1.0).breached(
            limits
        ) == []

    def test_unset_limits_never_breach(self):
        assert snapshot(queue_depth=10**6, pending_buckets=10**6).breached(
            AdmissionLimits()
        ) == []

    def test_non_positive_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionLimits(intake_bound=0)
        with pytest.raises(ValueError):
            AdmissionLimits(max_pending_buckets=-1)
        with pytest.raises(ValueError):
            AdmissionLimits(max_client_qps=0.0)


class TestPolicies:
    def test_admit_all_ignores_breaches(self):
        limits = AdmissionLimits(intake_bound=1)
        assert (
            AdmitAll().decide(snapshot(queue_depth=100), limits) is AdmissionDecision.ADMIT
        )

    def test_reject_and_defer_on_breach(self):
        limits = AdmissionLimits(intake_bound=2)
        breached = snapshot(queue_depth=2)
        clear = snapshot(queue_depth=1)
        assert RejectPolicy().decide(breached, limits) is AdmissionDecision.REJECT
        assert RejectPolicy().decide(clear, limits) is AdmissionDecision.ADMIT
        assert DeferPolicy().decide(breached, limits) is AdmissionDecision.DEFER
        assert DeferPolicy().decide(clear, limits) is AdmissionDecision.ADMIT

    def test_registry_round_trip_and_unknown_name(self):
        assert make_admission_policy("reject").name == "reject"
        policy = DeferPolicy()
        assert make_admission_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy("coin_flip")


class TestIntakeModel:
    def test_estimates_follow_the_cost_model(self):
        cost = CostModel(tb_ms=1_000.0, tm_ms=1.0)
        model = IntakeModel(cost)
        # Two buckets, 300 objects: 2 * Tb + 300 * Tm.
        assert model.estimate_cost_ms({1: 100, 2: 200}) == pytest.approx(2_300.0)

    def test_in_flight_work_retires_at_estimated_drain(self):
        cost = CostModel(tb_ms=1_000.0, tm_ms=1.0)
        model = IntakeModel(cost)
        model.admit(1, {5: 100}, now_ms=0.0)  # drains at 1_100
        state = model.snapshot(500.0, client_rate_qps=0.0)
        assert state.queue_depth == 1 and state.pending_buckets == 1
        state = model.snapshot(1_200.0, client_rate_qps=0.0)
        assert state.queue_depth == 0 and state.pending_buckets == 0

    def test_admissions_queue_behind_each_other(self):
        cost = CostModel(tb_ms=1_000.0, tm_ms=1.0)
        model = IntakeModel(cost)
        first_drain = model.admit(1, {5: 100}, now_ms=0.0)
        second_drain = model.admit(2, {6: 100}, now_ms=0.0)
        assert second_drain == pytest.approx(first_drain + 1_100.0)
        # Both still in flight after the first estimate alone would drain.
        state = model.snapshot(first_drain + 1.0, client_rate_qps=0.0)
        assert state.queue_depth == 1

    def test_bucket_backlog_counts_distinct_buckets(self):
        cost = CostModel(tb_ms=1_000.0, tm_ms=1.0)
        model = IntakeModel(cost)
        model.admit(1, {5: 10, 6: 10}, now_ms=0.0)
        model.admit(2, {6: 10, 7: 10}, now_ms=0.0)
        state = model.snapshot(0.0, client_rate_qps=0.0)
        assert state.pending_buckets == 3

    def test_shared_bucket_stays_pending_until_its_last_admission_drains(self):
        cost = CostModel(tb_ms=1_000.0, tm_ms=1.0)
        model = IntakeModel(cost)
        first_drain = model.admit(1, {5: 10, 6: 10}, now_ms=0.0)
        second_drain = model.admit(2, {6: 10, 7: 10}, now_ms=0.0)
        # The first admission's drain passes: bucket 5 retires with it,
        # bucket 6 is still referenced by the second admission.
        state = model.snapshot(first_drain, client_rate_qps=0.0)
        assert (state.queue_depth, state.pending_buckets) == (1, 2)
        state = model.snapshot(second_drain - 0.5, client_rate_qps=0.0)
        assert (state.queue_depth, state.pending_buckets) == (1, 2)
        state = model.snapshot(second_drain, client_rate_qps=0.0)
        assert (state.queue_depth, state.pending_buckets) == (0, 0)


class TestSessions:
    def query(self, query_id, arrival_s=0.0):
        return CrossMatchQuery(
            query_id=query_id, bucket_footprint={0: 1}, arrival_time_s=arrival_s
        )

    def test_queries_hash_onto_the_client_pool(self):
        registry = SessionRegistry(clients=3)
        assert registry.client_of(self.query(0)) == 0
        assert registry.client_of(self.query(4)) == 1
        assert registry.session_for(self.query(4)).client_id == 1

    def test_offered_rate_uses_a_sliding_window(self):
        registry = SessionRegistry(clients=1)
        session = registry.session(0)
        for t in (0.0, 6_000.0, 12_000.0):
            session.observe_offer(t)
        assert session.offered_rate_qps(12_000.0) == pytest.approx(3 / 60.0)
        # Two offers age out of the 60 s window.
        assert session.offered_rate_qps(69_000.0) == pytest.approx(1 / 60.0)
        assert session.offered_rate_qps(360_000.0) == 0.0

    def test_each_client_has_its_own_window(self):
        registry = SessionRegistry(clients=2)
        registry.session(0).observe_offer(0.0)
        registry.session(0).observe_offer(0.0)
        registry.session(1).observe_offer(0.0)
        assert registry.session(0) is registry.session(0)
        assert registry.session(0).offered_rate_qps(0.0) == pytest.approx(2 / 60.0)
        assert registry.session(1).offered_rate_qps(0.0) == pytest.approx(1 / 60.0)

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ValueError):
            SessionRegistry(clients=0)


class TestDeadlines:
    def test_mix_parsing_normalises_weights(self):
        mix = parse_deadline_mix("interactive=1, standard=3")
        assert mix == {"interactive": 0.25, "standard": 0.75}

    def test_mix_parsing_rejects_unknown_and_empty(self):
        with pytest.raises(ValueError, match="unknown deadline class"):
            parse_deadline_mix("warp_speed=1")
        with pytest.raises(ValueError, match="selects no classes"):
            parse_deadline_mix("")
        with pytest.raises(ValueError, match="bad weight"):
            parse_deadline_mix("batch=lots")

    def test_assignment_is_deterministic_and_respects_certainty(self):
        mix = {"interactive": 0.5, "batch": 0.5}
        first = [assign_deadline_class(qid, mix, seed=7) for qid in range(50)]
        second = [assign_deadline_class(qid, mix, seed=7) for qid in range(50)]
        assert first == second
        assert set(first) <= set(mix)
        # A single-class mix always assigns that class.
        assert all(
            assign_deadline_class(qid, {"batch": 1.0}, seed=7) == "batch"
            for qid in range(20)
        )

    def test_tracker_scores_first_result_and_completion(self):
        tracker = DeadlineTracker()
        tracker.assign(1, "interactive")
        tracker.assign(2, "interactive")
        tracker.assign(3, "batch")
        tracker.on_admitted(1)
        tracker.on_admitted(2)
        tracker.on_rejected(3)
        limit = DEADLINE_CLASSES["interactive"]
        tracker.on_completed(1, ttfr_s=limit.first_result_s - 1.0, ttc_s=1.0)
        tracker.on_completed(2, ttfr_s=limit.first_result_s + 1.0, ttc_s=1.0)
        rows = {row[0]: row for row in tracker.rows()}
        assert rows["interactive"][1:4] == (2, 0, 2)
        assert rows["interactive"][4] == pytest.approx(0.5)  # first-result SLA
        assert rows["interactive"][5] == pytest.approx(1.0)  # completion SLA
        assert rows["batch"][2] == 1  # rejected
        summary = tracker.summary()
        assert summary["completed"] == 2.0
        assert summary["first_result_hit_rate"] == pytest.approx(0.5)

    def test_tracker_summary_is_zero_safe(self):
        tracker = DeadlineTracker()
        assert tracker.summary() == {
            "completed": 0.0,
            "first_result_hit_rate": 0.0,
            "completion_hit_rate": 0.0,
        }
        with pytest.raises(ValueError, match="unknown deadline class"):
            tracker.assign(1, "warp_speed")
