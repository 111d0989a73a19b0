"""CLI surface of the telemetry subsystem.

``liferaft run --metrics-out/--trace-out`` export the merged snapshot
and the span timeline; ``liferaft report`` renders an exported snapshot
and ``liferaft compare`` diffs two of them; ``liferaft serve`` surfaces
the deadline tracker's SLA summary in its report.
"""

import json

import pytest

from repro.cli import main
from repro.telemetry.registry import SNAPSHOT_VERSION, snapshot_from_json
from repro.telemetry.spans import validate_chrome_trace


@pytest.fixture
def exported(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.json"
    assert (
        main(
            [
                "run",
                "--scale",
                "small",
                "--bucket-count",
                "64",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        == 0
    )
    return metrics, trace, capsys.readouterr().out


class TestRunExports:
    def test_run_reports_and_writes_both_files(self, exported):
        metrics, trace, output = exported
        assert "wrote metrics snapshot" in output
        assert "wrote span timeline" in output
        assert metrics.exists() and trace.exists()

    def test_metrics_file_is_a_valid_snapshot(self, exported):
        metrics, _trace, _output = exported
        snapshot = snapshot_from_json(metrics.read_text(encoding="utf-8"))
        assert snapshot["version"] == SNAPSHOT_VERSION
        entries = snapshot["metrics"].values()
        assert any(entry["domain"] == "virtual" for entry in entries)
        assert any(entry["name"] == "engine.queries_completed" for entry in entries)

    def test_trace_file_is_perfetto_loadable(self, exported):
        _metrics, trace, _output = exported
        loaded = json.loads(trace.read_text(encoding="utf-8"))
        validate_chrome_trace(loaded)
        assert loaded["otherData"]["clock"] == "virtual"
        assert any(event["ph"] == "X" for event in loaded["traceEvents"])


class TestReportCommand:
    def test_report_renders_sections(self, exported, capsys):
        metrics, _trace, _output = exported
        assert main(["report", str(metrics)]) == 0
        output = capsys.readouterr().out
        assert "snapshot v" in output
        assert "== metrics ==" in output
        assert "== series ==" in output
        assert "engine.queries_completed" in output

    def test_report_prints_every_metric_row(self, exported, capsys):
        metrics, _trace, _output = exported
        assert main(["report", str(metrics)]) == 0
        output = capsys.readouterr().out
        assert "virtual +" in output and "real metrics" in output
        assert "counter" in output and "histogram" in output

    def test_report_rejects_a_non_snapshot_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit, match="missing 'metrics'"):
            main(["report", str(bogus)])

    def test_report_rejects_a_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "absent.json")])


class TestReportJsonFormat:
    def test_json_format_emits_machine_readable_sections(self, exported, capsys):
        metrics, _trace, _output = exported
        assert main(["report", str(metrics), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"version", "domains", "metrics", "series", "sla", "events"}
        assert report["domains"]["virtual"] > 0
        names = {row["metric"] for row in report["metrics"]}
        assert "engine.queries_completed" in names

    def test_text_is_still_the_default(self, exported, capsys):
        metrics, _trace, _output = exported
        assert main(["report", str(metrics)]) == 0
        assert "== metrics ==" in capsys.readouterr().out


class TestCompareCommand:
    @pytest.fixture
    def archives(self, tmp_path, capsys):
        paths = []
        for name in ("a.lrrun", "b.lrrun"):
            path = tmp_path / name
            args = ["run", "--scale", "small", "--bucket-count", "64"]
            assert main(args + ["--archive-out", str(path)]) == 0
            paths.append(str(path))
        capsys.readouterr()
        return paths

    def test_identical_spec_runs_compare_clean(self, archives, capsys):
        assert main(["compare", *archives]) == 0
        output = capsys.readouterr().out
        assert "result digest match" in output
        assert "no drift" in output

    def test_different_seed_grades_digest_drift(self, archives, tmp_path, capsys):
        other = tmp_path / "other.lrrun"
        args = ["run", "--scale", "small", "--bucket-count", "64", "--seed", "99"]
        assert main(args + ["--archive-out", str(other)]) == 0
        capsys.readouterr()
        assert main(["compare", archives[0], str(other)]) == 2
        output = capsys.readouterr().out
        assert "result digest DRIFT" in output
        assert "digest drift" in output

    def test_missing_archive_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path / "no-a.lrrun"), str(tmp_path / "no-b.lrrun")])

    def test_corrupt_archive_is_a_clean_error(self, archives, tmp_path):
        mangled = tmp_path / "mangled.lrrun"
        raw = bytearray(open(archives[0], "rb").read())
        raw[-1] ^= 0xFF
        mangled.write_bytes(bytes(raw))
        with pytest.raises(SystemExit, match="CRC"):
            main(["compare", archives[0], str(mangled)])


class TestCompareSnapshots:
    """`compare` grades two metrics snapshots over the virtual domain."""

    def test_identical_snapshots_exit_zero(self, exported, capsys):
        metrics, _trace, _output = exported
        assert main(["compare", str(metrics), str(metrics)]) == 0
        output = capsys.readouterr().out
        assert "result digest: none" in output
        assert "metric drift (virtual domain): 0" in output
        assert "no drift" in output

    def test_differing_snapshots_exit_one(self, exported, tmp_path, capsys):
        metrics, _trace, _output = exported
        other = tmp_path / "other-metrics.json"
        args = ["run", "--scale", "small", "--bucket-count", "64", "--seed", "99"]
        assert main(args + ["--metrics-out", str(other)]) == 0
        capsys.readouterr()
        assert main(["compare", str(metrics), str(other)]) == 1
        output = capsys.readouterr().out
        assert "[changed]" in output
        assert "telemetry drift (exit 1)" in output

    def test_non_snapshot_json_is_a_clean_error(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit, match="missing 'metrics'"):
            main(["compare", str(bogus), str(bogus)])


class TestServeLiveSeries:
    def test_live_sampler_exports_real_domain_series(self, tmp_path, capsys):
        metrics = tmp_path / "serve-metrics.json"
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "small",
                    "--live-series-window-ms",
                    "5",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        assert "wrote metrics snapshot" in capsys.readouterr().out
        snapshot = snapshot_from_json(metrics.read_text(encoding="utf-8"))
        live = {
            entry["name"]: entry
            for entry in snapshot["metrics"].values()
            if entry["name"].startswith("series.live_")
        }
        assert set(live) == {
            "series.live_open_streams",
            "series.live_pending_admissions",
            "series.live_chunks_emitted",
        }
        for entry in live.values():
            assert entry["domain"] == "real"  # wall clock, not parity-checked
            assert entry["window_ms"] == 5.0
            assert len(entry["samples"]) > 0


class TestEnvelopesCommand:
    def test_record_then_check_round_trips(self, tmp_path, capsys):
        directory = tmp_path / "envelopes"
        args = ["envelopes", "hotspot_zone_skew", "--dir", str(directory)]
        assert main(args + ["--record"]) == 0
        assert "recorded envelope hotspot_zone_skew" in capsys.readouterr().out
        assert (directory / "hotspot_zone_skew.json").exists()
        assert main(args + ["--check"]) == 0
        assert "envelope OK: hotspot_zone_skew" in capsys.readouterr().out

    def test_check_reports_drift_and_exits_nonzero(self, tmp_path, capsys):
        directory = tmp_path / "envelopes"
        args = ["envelopes", "hotspot_zone_skew", "--dir", str(directory)]
        assert main(args + ["--record"]) == 0
        fixture = directory / "hotspot_zone_skew.json"
        envelope = json.loads(fixture.read_text(encoding="utf-8"))
        envelope["completion"]["completed"] += 1
        fixture.write_text(json.dumps(envelope), encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--check"]) == 1
        output = capsys.readouterr().out
        assert "ENVELOPE DRIFT: hotspot_zone_skew" in output
        assert "completion.completed" in output

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown scenarios"):
            main(["envelopes", "warp_drive", "--check", "--dir", str(tmp_path)])

    def test_missing_fixture_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["envelopes", "heavy_tail", "--check", "--dir", str(tmp_path)])


class TestRunSeriesWindowFlag:
    def test_series_window_ms_controls_the_cadence(self, tmp_path, capsys):
        coarse = tmp_path / "coarse.json"
        fine = tmp_path / "fine.json"
        base = ["run", "--scale", "small", "--bucket-count", "64"]
        assert main(base + ["--series-window-ms", "9600", "--metrics-out", str(coarse)]) == 0
        assert main(base + ["--series-window-ms", "4800", "--metrics-out", str(fine)]) == 0

        def series_samples(path):
            snapshot = snapshot_from_json(path.read_text(encoding="utf-8"))
            return {
                entry["name"]: len(entry["samples"])
                for entry in snapshot["metrics"].values()
                if entry["type"] == "series"
            }

        coarse_counts = series_samples(coarse)
        fine_counts = series_samples(fine)
        assert coarse_counts["series.queue_depth"] > 0
        # Halving the window doubles the barrier count (same makespan).
        assert fine_counts["series.queue_depth"] >= 2 * coarse_counts["series.queue_depth"]


class TestServeSlaSummary:
    def test_serve_prints_the_overall_sla_line(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "small",
                    "--deadline-mix",
                    "interactive=0.5,batch=0.5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SLA overall:" in output
        assert "first-result" in output and "completion" in output
