"""Tests for the adversarial scenario library and its recorded fixtures."""

import pytest

from repro.workload.replay import load_replay
from repro.workload.scenarios import (
    SCENARIOS,
    DiurnalFlashCrowdProcess,
    build_scenario,
    record_scenario,
)


class TestCatalog:
    def test_catalog_ships_the_documented_scenarios(self):
        assert set(SCENARIOS) == {
            "diurnal_flash_crowd",
            "hotspot_zone_skew",
            "slow_client_backpressure",
            "heavy_tail",
        }
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario.default_query_count > 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("nope")
        with pytest.raises(KeyError, match="unknown scenario"):
            record_scenario("nope", "/tmp/never-written.lrtr")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_per_seed_and_sorted_by_arrival(self, name):
        first = build_scenario(name, query_count=40, bucket_count=64, seed=7)
        second = build_scenario(name, query_count=40, bucket_count=64, seed=7)
        other = build_scenario(name, query_count=40, bucket_count=64, seed=8)
        assert len(first) == 40
        assert [q.arrival_time_s for q in first] == [q.arrival_time_s for q in second]
        assert [q.bucket_footprint for q in first] == [q.bucket_footprint for q in second]
        assert [q.arrival_time_s for q in first] != [q.arrival_time_s for q in other]
        times = [q.arrival_time_s for q in first]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)


class TestScenarioShapes:
    def test_diurnal_flash_queries_carry_deadline_classes(self):
        queries = build_scenario("diurnal_flash_crowd", query_count=160, bucket_count=64, seed=3)
        classes = {q.deadline_class for q in queries}
        assert classes <= {"interactive", "standard"}
        # The flash windows are what make the scenario adversarial, so the
        # builder must actually land arrivals inside them.
        assert "interactive" in classes and "standard" in classes
        process = DiurnalFlashCrowdProcess(
            base_rate_qps=0.4,
            peak_rate_qps=1.6,
            period_s=240.0,
            flash_starts_s=(90.0, 300.0),
            flash_duration_s=40.0,
            flash_multiplier=6.0,
            seed=3,
        )
        for query in queries:
            expected = "interactive" if process.in_flash(query.arrival_time_s) else "standard"
            assert query.deadline_class == expected

    def test_slow_client_carries_real_client_ids(self):
        queries = build_scenario(
            "slow_client_backpressure", query_count=40, bucket_count=64, seed=5
        )
        ids = {q.client_id for q in queries}
        assert ids == {0, 1, 2, 3}
        flood = [q for q in queries if q.client_id == 3]
        steady = [q for q in queries if q.client_id != 3]
        assert len(flood) == 10  # one quarter of the stream floods
        # The flood is a clustered burst: it spans far less wall time than
        # the steady stream it interrupts.
        flood_span = max(q.arrival_time_s for q in flood) - min(
            q.arrival_time_s for q in flood
        )
        steady_span = max(q.arrival_time_s for q in steady) - min(
            q.arrival_time_s for q in steady
        )
        assert flood_span < steady_span / 4

    def test_heavy_tail_spans_are_wider_than_the_friendly_default(self):
        heavy = build_scenario("heavy_tail", query_count=120, bucket_count=256, seed=9)
        friendly = build_scenario("hotspot_zone_skew", query_count=120, bucket_count=256, seed=9)
        assert max(len(q.bucket_footprint) for q in heavy) > max(
            len(q.bucket_footprint) for q in friendly
        )


class TestDiurnalProcess:
    def test_validation(self):
        with pytest.raises(ValueError, match="base rate"):
            DiurnalFlashCrowdProcess(base_rate_qps=0.0, peak_rate_qps=1.0, period_s=60.0)
        with pytest.raises(ValueError, match="peak rate"):
            DiurnalFlashCrowdProcess(base_rate_qps=1.0, peak_rate_qps=0.5, period_s=60.0)
        with pytest.raises(ValueError, match="period"):
            DiurnalFlashCrowdProcess(base_rate_qps=1.0, peak_rate_qps=2.0, period_s=0.0)
        with pytest.raises(ValueError, match="flash duration"):
            DiurnalFlashCrowdProcess(
                base_rate_qps=1.0, peak_rate_qps=2.0, period_s=60.0, flash_duration_s=0.0
            )
        with pytest.raises(ValueError, match="flash multiplier"):
            DiurnalFlashCrowdProcess(
                base_rate_qps=1.0, peak_rate_qps=2.0, period_s=60.0, flash_multiplier=0.5
            )

    def test_rate_tracks_the_diurnal_cycle_and_flashes(self):
        process = DiurnalFlashCrowdProcess(
            base_rate_qps=1.0,
            peak_rate_qps=3.0,
            period_s=100.0,
            flash_starts_s=(10.0,),
            flash_duration_s=5.0,
            flash_multiplier=4.0,
        )
        assert process.rate_at(0.0) == pytest.approx(1.0)  # midnight trough
        assert process.rate_at(50.0) == pytest.approx(3.0)  # midday peak
        assert process.in_flash(12.0) and not process.in_flash(16.0)
        assert process.rate_at(12.0) == pytest.approx(4.0 * process.rate_at(12.0) / 4.0)
        assert process.rate_at(12.0) > 4.0 * 0.9  # flash multiplies the diurnal rate

    def test_arrivals_deterministic_and_non_decreasing(self):
        kwargs = dict(base_rate_qps=1.0, peak_rate_qps=2.0, period_s=60.0, seed=11)
        first = DiurnalFlashCrowdProcess(**kwargs).arrival_times(200)
        second = DiurnalFlashCrowdProcess(**kwargs).arrival_times(200)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 200


class TestRecordScenario:
    def test_round_trip_replays_bit_identically(self, tmp_path):
        path = str(tmp_path / "hotspot.lrtr")
        info = record_scenario(
            "hotspot_zone_skew", path, query_count=30, bucket_count=64, seed=4
        )
        assert info.query_count == 30
        outcome = load_replay(path).execute()
        assert outcome.trace.meta["scenario"] == "hotspot_zone_skew"
        assert outcome.digest_checked
        assert outcome.digest_matches

    def test_replay_with_different_shape_skips_digest(self, tmp_path):
        path = str(tmp_path / "hotspot.lrtr")
        record_scenario("hotspot_zone_skew", path, query_count=20, bucket_count=64, seed=4)
        outcome = load_replay(path, workers=2, backend="virtual").execute()
        assert not outcome.digest_checked
        assert outcome.result.completed_queries == 20
