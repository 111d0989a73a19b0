"""Tests for the benchmark ratchet (snapshot comparison logic)."""

import json

import pytest

from benchmarks.ratchet import DEFAULT_TOLERANCE, compare, load_snapshot, main


def snapshot(**metrics):
    return {
        "scale": "small",
        "benchmarks": {
            "test_bench_store_columnar_scan": {
                "min_s": 0.01,
                "extra_info": {"file_megabytes": 5.41, **metrics},
            }
        },
    }


class TestCompare:
    def test_identical_snapshots_hold(self):
        base = snapshot(columnar_decode_mb_per_s=700.0)
        failures, report = compare(base, base)
        assert failures == []
        assert any("columnar_decode_mb_per_s" in line for line in report)

    def test_improvement_holds(self):
        failures, _ = compare(
            snapshot(columnar_decode_mb_per_s=700.0),
            snapshot(columnar_decode_mb_per_s=900.0),
        )
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        failures, _ = compare(
            snapshot(columnar_decode_mb_per_s=700.0),
            snapshot(columnar_decode_mb_per_s=500.0),
        )
        assert len(failures) == 1
        assert "columnar_decode_mb_per_s" in failures[0]

    def test_regression_within_tolerance_holds(self):
        value = 700.0 * (1.0 - DEFAULT_TOLERANCE) + 1.0
        failures, _ = compare(
            snapshot(columnar_decode_mb_per_s=700.0),
            snapshot(columnar_decode_mb_per_s=value),
        )
        assert failures == []

    def test_missing_benchmark_fails(self):
        failures, _ = compare(
            snapshot(columnar_decode_mb_per_s=700.0),
            {"scale": "small", "benchmarks": {}},
        )
        assert failures and "missing from candidate" in failures[0]

    def test_dropped_metric_fails(self):
        failures, _ = compare(snapshot(columnar_decode_mb_per_s=700.0), snapshot())
        assert failures and "no longer records" in failures[0]

    def test_scale_mismatch_fails(self):
        candidate = snapshot(columnar_decode_mb_per_s=700.0)
        candidate["scale"] = "full"
        failures, _ = compare(snapshot(columnar_decode_mb_per_s=700.0), candidate)
        assert failures and "scale mismatch" in failures[0]

    def test_lower_is_better_metrics_fail_when_they_rise(self):
        base = snapshot(decision_growth_16x=1.6, decision_us_at_4096=9.0)
        failures, _ = compare(base, snapshot(decision_growth_16x=1.2, decision_us_at_4096=5.0))
        assert failures == []
        failures, _ = compare(base, snapshot(decision_growth_16x=17.0, decision_us_at_4096=9.5))
        assert len(failures) == 1 and "decision_growth_16x" in failures[0]

    def test_unratcheted_metrics_are_ignored(self):
        failures, _ = compare(
            snapshot(columnar_decode_mb_per_s=700.0, file_megabytes=100.0),
            snapshot(columnar_decode_mb_per_s=700.0, file_megabytes=1.0),
        )
        assert failures == []


class TestCli:
    def write(self, tmp_path, name, snap):
        path = tmp_path / name
        path.write_text(json.dumps(snap))
        return str(path)

    def test_main_returns_zero_when_holding(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", snapshot(columnar_decode_mb_per_s=700.0))
        cand = self.write(tmp_path, "cand.json", snapshot(columnar_decode_mb_per_s=710.0))
        assert main([base, cand]) == 0
        assert "ratchet holds" in capsys.readouterr().out

    def test_main_returns_one_on_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", snapshot(columnar_decode_mb_per_s=700.0))
        cand = self.write(tmp_path, "cand.json", snapshot(columnar_decode_mb_per_s=100.0))
        assert main([base, cand]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_custom_tolerance(self, tmp_path):
        base = self.write(tmp_path, "base.json", snapshot(columnar_decode_mb_per_s=700.0))
        cand = self.write(tmp_path, "cand.json", snapshot(columnar_decode_mb_per_s=400.0))
        assert main([base, cand, "--tolerance", "0.5"]) == 0

    def test_bad_tolerance_rejected(self, tmp_path):
        base = self.write(tmp_path, "base.json", snapshot(columnar_decode_mb_per_s=700.0))
        with pytest.raises(SystemExit):
            main([base, base, "--tolerance", "1.5"])

    def test_malformed_snapshot_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="missing 'benchmarks'"):
            load_snapshot(str(bad))
