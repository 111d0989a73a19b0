"""Tests for the experiment modules (figures, claims and the registry)."""

import pytest

from repro.experiments import EXPERIMENTS, run_all
from repro.experiments import (
    ablations,
    cache_hits,
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    index_only,
)
from repro.experiments.common import (
    SCALES,
    build_simulator,
    build_trace,
    estimate_capacity_qps,
    render_table,
    scale_preset,
)

#: One shared tiny trace/simulator pair so the experiment tests stay fast.
TINY = dict(query_count=120, bucket_count=256)


@pytest.fixture(scope="module")
def tiny_trace():
    return build_trace("small", **TINY)


@pytest.fixture(scope="module")
def tiny_simulator():
    return build_simulator("small", bucket_count=TINY["bucket_count"])


class TestCommon:
    def test_scale_presets(self):
        assert set(SCALES) == {"small", "default", "full"}
        assert scale_preset("full").query_count == 2000
        with pytest.raises(KeyError):
            scale_preset("huge")

    def test_build_trace_respects_overrides(self, tiny_trace):
        assert len(tiny_trace) == TINY["query_count"]
        assert tiny_trace.config.bucket_count == TINY["bucket_count"]

    def test_capacity_estimate_is_positive(self, tiny_trace, tiny_simulator):
        capacity = estimate_capacity_qps(tiny_trace, tiny_simulator)
        assert capacity > 0

    def test_render_table_alignment(self):
        table = render_table(("a", "value"), [(1, 2.34567), ("xx", 3)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_registry_and_unknown_name(self):
        assert set(EXPERIMENTS) == {
            "figure2",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "index_only",
            "cache_hits",
            "cache_ablation",
            "ablations",
            "elasticity",
            "recovery",
            "scaling",
            "serving",
        }

    def test_scaling_sweep_always_includes_serial_baseline(self):
        from repro.experiments import scaling

        result = scaling.run(scale="small", workers=(2,))
        assert result.rows[0][0] == 1, "speedups must be relative to 1 worker"
        assert result.rows[0][2] == pytest.approx(1.0)
        with pytest.raises(KeyError):
            run_all(names=["figure99"])


class TestFigure2:
    def test_breakeven_matches_paper(self):
        result = figure2.run()
        assert result.name == "figure2"
        assert 0.02 <= result.headline["breakeven_fraction"] <= 0.04
        # The speed-up column crosses 1.0 between the smallest and largest ratios.
        speedups = [row[-1] for row in result.rows]
        assert speedups[0] < 1.0 < speedups[-1]
        assert result.render()


class TestWorkloadFigures:
    def test_figure5_top_bucket_reuse(self, tiny_trace):
        result = figure5.run(trace=tiny_trace)
        assert len(result.rows) == 10
        assert 0.0 < result.headline["fraction_queries_touching_top10"] <= 1.0
        # Reuse counts are reported in decreasing order of rank.
        counts = [row[2] for row in result.rows]
        assert counts == sorted(counts, reverse=True)

    def test_figure6_cumulative_curve_is_monotone(self, tiny_trace):
        result = figure6.run(trace=tiny_trace)
        cumulative = [row[2] for row in result.rows]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(100.0)
        assert 0.0 < result.headline["workload_fraction_in_top_2pct"] <= 1.0


class TestSchedulingFigures:
    def test_figure7_headline_claims(self, tiny_trace, tiny_simulator):
        result = figure7.run(trace=tiny_trace, simulator=tiny_simulator)
        assert result.headline["greedy_vs_noshare_throughput"] > 1.5
        assert result.headline["rr_vs_alpha1_throughput"] == pytest.approx(1.0, abs=0.25)
        labels = [row[0] for row in result.rows]
        assert labels[0] == "NoShare" and labels[-1] == "RR"
        # NoShare has the worst (largest) normalised response time.
        normalised = {row[0]: row[3] for row in result.rows}
        assert all(normalised[label] <= 1.0 + 1e-9 for label in labels)

    def test_figure4_controller_prefers_more_aging_at_low_saturation(
        self, tiny_trace, tiny_simulator
    ):
        result = figure4.run(trace=tiny_trace, simulator=tiny_simulator)
        assert result.headline["alpha_selected_low"] >= result.headline["alpha_selected_high"]
        assert len(result.rows) == 10  # two curves x five alphas

    def test_figure8_sweep_shape(self, tiny_trace, tiny_simulator):
        result = figure8.run(
            trace=tiny_trace,
            simulator=tiny_simulator,
            capacity_fractions=(0.5, 2.0),
            alphas=(0.0, 1.0),
        )
        assert len(result.rows) == 4
        assert result.headers[4:7] == ("avg response (s)", "p95 response (s)", "max response (s)")
        for row in result.rows:
            assert len(row) == len(result.headers) == 8
            mean_s, p95_s, max_s = row[4:7]
            assert 0 < mean_s <= max_s and p95_s <= max_s
        assert result.headline["greedy_capacity_qps"] > 0
        # The throughput gap between alpha=0 and alpha=1 does not shrink as
        # saturation grows (the paper's "gap widens" observation).
        assert (
            result.headline["throughput_gap_at_highest_saturation"]
            >= result.headline["throughput_gap_at_lowest_saturation"] - 1e-6
        )


class TestClaims:
    def test_cache_hits_gap(self, tiny_trace, tiny_simulator):
        result = cache_hits.run(trace=tiny_trace, simulator=tiny_simulator)
        assert result.headline["hit_rate_alpha0"] > result.headline["hit_rate_alpha1"]

    def test_index_only_slowdown(self, tiny_simulator):
        trace = build_trace(
            "small",
            query_count=80,
            bucket_count=256,
            objects_per_query_bucket_median=2_000,
            objects_per_query_bucket_sigma=0.5,
            focus_boost=2.0,
        )
        result = index_only.run(trace=trace, simulator=tiny_simulator)
        assert result.headline["index_only_slowdown_busy_time"] > 3.0

    def test_serving_experiment_reports_the_trade_off(self, tiny_trace, tiny_simulator):
        from repro.experiments import serving

        result = serving.run(
            trace=tiny_trace,
            simulator=tiny_simulator,
            alphas=(0.0, 1.0),
            intake_bound=32,
        )
        assert result.name == "serving"
        assert len(result.rows) == 2
        for alpha in (0.0, 1.0):
            suffix = f"alpha{alpha:g}"
            assert 0.0 < result.headline[f"ttfr_s_{suffix}"]
            assert result.headline[f"ttfr_s_{suffix}"] < result.headline[f"ttc_s_{suffix}"]
            assert 0.0 <= result.headline[f"rejection_rate_{suffix}"] < 1.0
        assert result.render()

    def test_ablations_table_contains_all_configurations(self, tiny_trace):
        result = ablations.run(trace=tiny_trace, cache_sizes=(5, 20))
        labels = [row[0] for row in result.rows]
        assert "cache=5" in labels and "cache=20" in labels
        assert "hybrid=on" in labels and "hybrid=off" in labels
        assert "liferaft" in labels and "least_sharable_first" in labels
        assert "metric=normalised" in labels and "metric=raw" in labels


class TestRecoveryExperiment:
    def test_cadence_sweep_keeps_parity_and_orders_lost_work(
        self, tiny_trace, tiny_simulator
    ):
        from repro.experiments import recovery

        result = recovery.run(
            trace=tiny_trace,
            simulator=tiny_simulator,
            cadences=("windows:1", "windows:8"),
        )
        assert result.name == "recovery"
        assert len(result.rows) == 2
        # Every cadence preserves the crash-parity invariant.
        assert all(row[-1] == "yes" for row in result.rows)
        # The sweep recovered from the planned crashes at both cadences.
        assert all(row[4] >= 1 for row in result.rows)
        # Sparser checkpoints can only lose as much or more work.
        fine, sparse = result.rows[0], result.rows[1]
        assert fine[1] > sparse[1]  # more checkpoints at the finer cadence
        assert fine[5] <= sparse[5]  # never more lost work at the finer cadence
        assert "lost_services_finest" in result.headline


class TestCacheAblationExperiment:
    def test_page_cache_off_vs_on_over_one_store(self, tmp_path, tiny_trace):
        from repro.experiments import cache_ablation
        from repro.experiments.common import build_simulator
        from repro.storage.ingest import materialize_layout

        simulator = build_simulator("small", bucket_count=TINY["bucket_count"])
        store_path = tmp_path / "ablation.lrbs"
        materialize_layout(store_path, simulator.layout, rows_per_bucket=16)
        result = cache_ablation.run(trace=tiny_trace, store_path=str(store_path))
        assert result.name == "cache_ablation"
        assert result.headline["virtual_invariant"] == 1.0
        by_capacity = {row[0]: row for row in result.rows}
        off, default = by_capacity[0], by_capacity[20]
        # Tier 2 off: every physical read reaches the file.
        assert off[2] == result.headline["page_reads_off"]
        # The default tier absorbs at least some repeated reads.
        assert default[2] <= off[2]
        # The virtual bucket-read counter is identical in every row.
        assert len({row[1] for row in result.rows}) == 1
