"""Run reports and snapshot diffs (`liferaft report`, `liferaft compare`).

Both are pure presentation over exported snapshots, so the tests build
small registries in memory and check the rendered sections and the diff
rows directly.
"""

import json

from repro.telemetry.registry import MetricsRegistry, REAL_DOMAIN
from repro.telemetry.report import (
    diff_snapshots,
    render_report,
    report_to_json,
    summary_rows,
)


def serving_snapshot(queue_peak=5, admitted=9):
    registry = MetricsRegistry()
    registry.counter("engine.queries_completed").inc(admitted)
    registry.gauge("cache.buckets_peak").mark(queue_peak)
    registry.histogram("svc.batch_ms", (1, 10), domain=REAL_DOMAIN).observe(3)
    series = registry.series("series.queue_depth", 100.0, labels={"shard": "0"})
    series.record(0, 2)
    series.record(1, queue_peak)
    registry.counter("sla.admitted", labels={"class": "interactive"}).inc(admitted)
    registry.counter("sla.completed", labels={"class": "interactive"}).inc(admitted)
    registry.counter("reliability.checkpoints_written", domain=REAL_DOMAIN).inc(4)
    return registry.snapshot()


class TestRenderReport:
    def test_sections_render_in_order(self):
        report = render_report(serving_snapshot())
        positions = [
            report.index(marker)
            for marker in ("== metrics ==", "== series ==", "== SLA ==", "== events ==")
        ]
        assert positions == sorted(positions)

    def test_header_counts_domains(self):
        report = render_report(serving_snapshot())
        # 5 virtual metrics (counter, gauge, series, 2 sla) + 2 real.
        assert report.splitlines()[0] == "snapshot v2: 5 virtual + 2 real metrics"

    def test_series_row_shows_window_and_range(self):
        report = render_report(serving_snapshot())
        series_line = next(
            line for line in report.splitlines() if "series.queue_depth" in line
        )
        assert "shard=0" in series_line
        assert "n=2" in series_line and "window=100ms" in series_line

    def test_sla_section_groups_by_class(self):
        report = render_report(serving_snapshot(admitted=9))
        sla_line = next(
            line for line in report.splitlines() if line.startswith("interactive")
        )
        cells = sla_line.split()
        assert cells[:4] == ["interactive", "9", "0", "9"]

    def test_events_section_lists_reliability_counters(self):
        report = render_report(serving_snapshot())
        assert "reliability.checkpoints_written" in report.split("== events ==")[1]

    def test_empty_snapshot_renders_just_the_header(self):
        report = render_report(MetricsRegistry().snapshot())
        assert report == "snapshot v2: 0 virtual + 0 real metrics"


class TestReportToJson:
    def test_sections_mirror_the_text_report(self):
        report = report_to_json(serving_snapshot(admitted=9))
        assert report["domains"] == {"virtual": 5, "real": 2}
        by_name = {row["metric"]: row for row in report["metrics"]}
        assert by_name["engine.queries_completed"]["value"] == 9  # numeric, unformatted
        assert by_name["sla.admitted"]["labels"] == {"class": "interactive"}
        assert by_name["svc.batch_ms"]["count"] == 1
        assert "series.queue_depth" not in by_name  # series get their own section
        (series,) = report["series"]
        assert series["name"] == "series.queue_depth"
        assert series["labels"] == {"shard": "0"}
        assert series["window_ms"] == 100.0
        assert series["samples"] == [[0, 2], [1, 5]]
        assert report["sla"]["interactive"]["admitted"] == 9
        events = {row["event"]: row["count"] for row in report["events"]}
        assert events["reliability.checkpoints_written"] == 4

    def test_output_is_json_serialisable(self):
        report = report_to_json(serving_snapshot())
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_empty_snapshot(self):
        report = report_to_json(MetricsRegistry().snapshot())
        assert report["domains"] == {"virtual": 0, "real": 0}
        assert report["metrics"] == [] and report["series"] == []
        assert report["sla"] == {} and report["events"] == []


class TestDiffSnapshots:
    def test_identical_snapshots_diff_empty(self):
        assert diff_snapshots(serving_snapshot(), serving_snapshot()) == []

    def test_value_change_reports_delta(self):
        rows = diff_snapshots(serving_snapshot(admitted=9), serving_snapshot(admitted=12))
        changed = {key: delta for key, status, delta in rows if status == "changed"}
        assert changed["engine.queries_completed"] == "9 -> 12 (+3)"

    def test_series_change_reports_sample_deltas(self):
        rows = dict(
            (key, (status, delta))
            for key, status, delta in diff_snapshots(
                serving_snapshot(queue_peak=5), serving_snapshot(queue_peak=8)
            )
        )
        status, delta = rows["series.queue_depth|shard=0"]
        assert status == "changed"
        assert "1 changed" in delta

    def test_series_length_difference_reports_additions(self):
        # A longer-running second snapshot must not diff clean just
        # because its extra windows have nothing to compare against.
        a = serving_snapshot()
        b = serving_snapshot()
        b["metrics"]["series.queue_depth|shard=0"]["samples"].append([2, 7])
        rows = dict(
            (key, (status, delta)) for key, status, delta in diff_snapshots(a, b)
        )
        status, delta = rows["series.queue_depth|shard=0"]
        assert status == "changed"
        assert delta == "samples 2 -> 3, 1 added"
        # And symmetrically as removals in the other direction.
        _, reverse_delta = dict(
            (key, (status, delta)) for key, status, delta in diff_snapshots(b, a)
        )["series.queue_depth|shard=0"]
        assert reverse_delta == "samples 3 -> 2, 1 removed"

    def test_only_in_one_side(self):
        a = serving_snapshot()
        b = serving_snapshot()
        extra = MetricsRegistry()
        extra.counter("only.here").inc(1)
        b["metrics"]["only.here"] = extra.snapshot()["metrics"]["only.here"]
        rows = diff_snapshots(a, b)
        assert ("only.here", "only-b", "1") in rows
        rows_reversed = diff_snapshots(b, a)
        assert ("only.here", "only-a", "1") in rows_reversed

    def test_type_change_is_reported(self):
        a = serving_snapshot()
        b = serving_snapshot()
        gauge_entry = b["metrics"]["cache.buckets_peak"]
        b["metrics"]["cache.buckets_peak"] = dict(gauge_entry, type="counter")
        rows = diff_snapshots(a, b)
        assert ("cache.buckets_peak", "type-changed", "gauge -> counter") in rows


class TestSummaryRows:
    def test_virtual_domain_leads_then_name_order(self):
        rows = summary_rows(serving_snapshot())
        domains = [domain for domain, _metric, _kind, _value in rows]
        assert domains == sorted(domains, key=lambda domain: domain != "virtual")
        virtual = [metric for domain, metric, _kind, _value in rows if domain == "virtual"]
        assert virtual == sorted(virtual)

    def test_labels_render_into_the_metric_name(self):
        metrics = {metric for _domain, metric, _kind, _value in summary_rows(serving_snapshot())}
        assert "series.queue_depth{shard=0}" in metrics
        assert "sla.admitted{class=interactive}" in metrics
