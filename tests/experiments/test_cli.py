"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main, worker_sweep
from repro.telemetry.registry import metric_value, snapshot_from_json


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure7" in output and "cache_hits" in output
        assert "scaling" in output

    def test_trace_command_prints_statistics(self, capsys):
        assert main(["trace", "--scale", "small", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "cross-match objects" in output
        assert "fraction_queries_touching_top10" in output

    def test_experiments_command_runs_named_experiment(self, capsys):
        assert main(["experiments", "figure2", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "figure2" in output
        assert "breakeven_fraction" in output

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--scale", "galactic"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestWorkerSweep:
    def test_powers_of_two_up_to_max(self):
        assert worker_sweep(8) == [1, 2, 4, 8]
        assert worker_sweep(6) == [1, 2, 4, 6]
        assert worker_sweep(1) == [1]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            worker_sweep(0)


class TestServeCommand:
    def test_serve_prints_the_serving_report(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "small",
                    "--admission",
                    "reject",
                    "--intake-bound",
                    "16",
                    "--saturation",
                    "2.0",
                    "--deadline-mix",
                    "interactive=0.5,batch=0.5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "serving report (reject admission" in output
        assert "avg TTFR" in output
        assert "first-result SLA" in output
        assert "interactive" in output and "batch" in output

    def test_serve_rejects_bad_deadline_mix(self):
        with pytest.raises(SystemExit, match="unknown deadline class"):
            main(["serve", "--scale", "small", "--deadline-mix", "warp=1"])

    def test_serve_rejects_unknown_admission_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--admission", "coin_flip"])

    def test_serve_rejects_backend_without_workers(self):
        """--backend must not be silently dropped on the serial path."""
        with pytest.raises(SystemExit, match="requires --workers"):
            main(["serve", "--scale", "small", "--backend", "process"])

    def test_serve_report_names_the_engine(self, capsys):
        assert main(["serve", "--scale", "small", "--workers", "2"]) == 0
        assert "virtual backend x2" in capsys.readouterr().out


#: A bad value for each of these flags once ended in a ValueError traceback.
BAD_FLAG_VALUES = [
    (["serve", "--deadline-mix", "warp=1"], "unknown deadline class 'warp'"),
    (["run", "--saturation", "-1"], "arrival rate must be positive"),
    (["run", "--alpha", "-3"], r"alpha must be within \[0, 1\]"),
    (["serve", "--alpha", "7"], r"alpha must be within \[0, 1\]"),
    (["run", "--series-window-ms", "-5"], "series_window_ms must be positive"),
    (["serve", "--live-series-window-ms", "-1"], "live_series_window_ms must be positive"),
    (["serve", "--max-client-qps", "-2"], "max_client_qps must be positive"),
    (["run", "--policy", "nope"], None),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLAG_VALUES, ids=[" ".join(argv) for argv, _ in BAD_FLAG_VALUES]
)
def test_bad_flag_value_is_a_one_line_exit(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv[:1] + ["--scale", "small"] + argv[1:])
    if message is None:  # an argparse choice: usage line plus one error line
        assert exited.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
    else:
        text = str(exited.value.code)
        assert "\n" not in text
        assert re.search(message, text)
    assert "Traceback" not in capsys.readouterr().err


class TestSaturationIsRecorded:
    """``--saturation`` rewrites the arrivals and is recorded on the run."""

    @pytest.fixture
    def specs(self, monkeypatch):
        from repro.sim.simulator import Simulator

        seen = []
        execute = Simulator.execute

        def recording(simulator, queries, spec):
            result = execute(simulator, queries, spec)
            seen.append((spec, result))
            return result

        monkeypatch.setattr(Simulator, "execute", recording)
        return seen

    def test_run_records_the_rate_in_archive_and_trace(self, specs, tmp_path, capsys):
        from repro.telemetry.archive import read_run_archive
        from repro.workload.trace_io import read_trace

        archive = str(tmp_path / "a.lrrun")
        trace = str(tmp_path / "a.lrtr")
        argv = ["run", "--scale", "small", "--bucket-count", "64", "--saturation", "0.5"]
        assert main(argv + ["--archive-out", archive, "--record-trace", trace]) == 0
        ((spec, result),) = specs
        assert spec.saturation_qps == result.saturation_qps == 0.5
        assert read_run_archive(archive).spec["saturation_qps"] == 0.5
        assert read_trace(trace).meta["saturation_qps"] == 0.5

    def test_serve_records_the_rate(self, specs, capsys):
        assert main(["serve", "--scale", "small", "--saturation", "2.0"]) == 0
        ((spec, result),) = specs
        assert spec.saturation_qps == result.saturation_qps == 2.0


class TestScalingCommand:
    def test_scaling_experiment_with_workers_flag(self, capsys):
        assert main(["experiments", "scaling", "--scale", "small", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "Throughput scaling with parallel workers" in output
        assert "speedup_2x" in output

    def test_workers_flag_ignored_by_non_parallel_experiments(self, capsys):
        assert main(["experiments", "figure2", "--scale", "small", "--workers", "2"]) == 0
        assert "figure2" in capsys.readouterr().out


@pytest.fixture
def small_store(tmp_path):
    """A tiny ingested store (64 buckets, 16 rows each) for CLI tests."""
    path = tmp_path / "cli-site.lrbs"
    assert (
        main(
            [
                "ingest",
                "--scale",
                "small",
                "--bucket-count",
                "64",
                "--rows-per-bucket",
                "16",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return path


class TestIngestCommand:
    def test_ingest_writes_a_readable_store(self, tmp_path, capsys):
        from repro.storage.format import read_layout

        path = tmp_path / "fresh.lrbs"
        args = ["ingest", "--scale", "small", "--bucket-count", "64"]
        args += ["--rows-per-bucket", "16", "--out", str(path)]
        assert main(args) == 0
        assert path.exists()
        assert len(read_layout(path)) == 64
        output = capsys.readouterr().out
        assert "ingested density layout" in output
        assert "generation" in output

    def test_ingest_synthetic_sky(self, tmp_path, capsys):
        from repro.storage.disk_store import open_disk_store

        path = tmp_path / "sky.lrbs"
        assert (
            main(
                [
                    "ingest",
                    "--sky-objects",
                    "400",
                    "--objects-per-bucket",
                    "50",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        assert "synthetic sky" in capsys.readouterr().out
        with open_disk_store(path) as store:
            assert store.layout.total_objects() == 400
            assert len(store.bucket_image(0).columns.rows()) == 50

    def test_density_flags_conflict_with_sky_mode(self, tmp_path):
        out = str(tmp_path / "x.lrbs")
        with pytest.raises(SystemExit, match="density ingests only"):
            main(["ingest", "--sky-objects", "100", "--rows-per-bucket", "4", "--out", out])

    def test_ingest_rejects_non_positive_rows_per_bucket(self, tmp_path):
        out = str(tmp_path / "r.lrbs")
        with pytest.raises(SystemExit):
            main(["ingest", "--scale", "small", "--rows-per-bucket", "0", "--out", out])

    def test_sky_flags_conflict_with_density_mode(self, tmp_path):
        out = str(tmp_path / "y.lrbs")
        with pytest.raises(SystemExit, match="sky-objects ingests only"):
            main(["ingest", "--scale", "small", "--objects-per-bucket", "10", "--out", out])


class TestRunCommand:
    def test_run_in_memory(self, capsys):
        assert main(["run", "--scale", "small", "--bucket-count", "64"]) == 0
        output = capsys.readouterr().out
        assert "memory store" in output
        assert "completed_queries" in output

    def test_run_verifies_file_memory_parity(self, small_store, capsys):
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--store-path",
                    str(small_store),
                    "--verify-against-memory",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "file store" in output
        assert "parity OK" in output

    def test_verify_requires_store_path(self):
        with pytest.raises(SystemExit, match="requires --store-path"):
            main(["run", "--scale", "small", "--verify-against-memory"])

    def test_backend_requires_workers(self):
        with pytest.raises(SystemExit, match="requires --workers"):
            main(["run", "--scale", "small", "--backend", "process"])

    def test_bucket_count_conflicts_with_store(self, small_store):
        with pytest.raises(SystemExit, match="cannot override"):
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--store-path",
                    str(small_store),
                    "--bucket-count",
                    "32",
                ]
            )


class TestStorePathFlags:
    def test_serve_from_store(self, small_store, capsys):
        assert main(["serve", "--scale", "small", "--store-path", str(small_store)]) == 0
        assert "file store" in capsys.readouterr().out

    def test_scaling_experiment_from_store(self, small_store, capsys):
        assert (
            main(
                [
                    "experiments",
                    "scaling",
                    "--scale",
                    "small",
                    "--workers",
                    "2",
                    "--store-path",
                    str(small_store),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "file-backed" in output
        assert "real read (s)" in output


class TestRecoveryFlags:
    """`liferaft run` with the reliability subsystem's flags."""

    # A window quantum of 4 bucket reads (Tb = 1.2 s) keeps the small
    # trace spanning several barriers so the injected crash actually fires.
    WINDOW_MS = "4800"

    def test_crash_injected_run_recovers_and_verifies(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--bucket-count",
                    "64",
                    "--workers",
                    "2",
                    "--inject-crash",
                    "1@1",
                    "--checkpoint-window-ms",
                    self.WINDOW_MS,
                    "--verify-recovery",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "reliability:" in captured.out
        assert "recovery parity OK" in captured.out
        assert captured.err == "", "a plan that fired in full warns about nothing"

    def test_crash_injected_run_on_file_backed_store(self, small_store, capsys):
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--store-path",
                    str(small_store),
                    "--workers",
                    "2",
                    "--inject-crash",
                    "0@1",
                    "--checkpoint-window-ms",
                    self.WINDOW_MS,
                    "--verify-recovery",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "file store" in output
        assert "recovery parity OK" in output

    def test_checkpoint_dir_keeps_files(self, tmp_path, capsys):
        target = tmp_path / "ckpts"
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--bucket-count",
                    "64",
                    "--checkpoint-dir",
                    str(target),
                    "--checkpoint-every",
                    "windows:2",
                    "--checkpoint-window-ms",
                    self.WINDOW_MS,
                ]
            )
            == 0
        )
        assert list(target.glob("*.lrcp")), "explicit --checkpoint-dir retains files"
        assert "reliability:" in capsys.readouterr().out

    @pytest.mark.parametrize("plan", ((), ("--inject-crash", "1@2:leave")))
    def test_verify_recovery_requires_inject_crash(self, plan):
        with pytest.raises(SystemExit, match="requires --inject-crash"):
            main(["run", "--scale", "small", "--workers", "2", "--verify-recovery", *plan])

    def test_bad_crash_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scale", "small", "--inject-crash", "nope"])

    def test_bad_cadence_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scale", "small", "--checkpoint-every", "sometimes"])

    def test_recovery_experiment_listed(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "recovery" in output
        assert "cache_ablation" in output

    def test_verify_recovery_fails_when_no_crash_fires(self, capsys):
        # A crash window the run never reaches must invalidate the
        # verification instead of comparing two effectively-clean runs.
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--bucket-count",
                    "64",
                    "--workers",
                    "2",
                    "--inject-crash",
                    "1@100000",
                    "--checkpoint-window-ms",
                    self.WINDOW_MS,
                    "--verify-recovery",
                ]
            )
            == 1
        )
        assert "RECOVERY VERIFICATION INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "plan, unfired",
        (
            (("--inject-crash", "1@100000"), "kill 0 of 1"),
            (("--scale-down", "1@100000"), "leave 0 of 1"),
            (("--scale-up", "100000"), "join 0 of 1"),
        ),
        ids=("kill", "leave", "join"),
    )
    def test_unfired_plan_events_are_named_on_stderr(self, plan, unfired, capsys):
        # Planned events past the run's last window never execute: the
        # run still succeeds, but says so on one stderr line.
        args = ["run", "--scale", "small", "--bucket-count", "64", "--workers", "2", *plan]
        assert main(args) == 0
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert unfired in errors[0]

    def test_out_of_range_crash_worker_rejected(self):
        with pytest.raises(SystemExit, match="0-based"):
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--workers",
                    "2",
                    "--inject-crash",
                    "2@1",
                ]
            )

    @pytest.mark.parametrize(
        "plan",
        (
            ("--scale-down", "1@2", "--inject-crash", "1@5"),  # worker 1 has left
            ("--scale-up", "4", "--inject-crash", "3@1"),  # worker 3 has not joined
        ),
    )
    def test_kill_of_an_inactive_worker_rejected(self, plan):
        # Neither kill can ever fire, so the plan is refused before the
        # run rather than ending with crashes_injected 0.
        with pytest.raises(SystemExit, match="not active at window"):
            main(["run", "--scale", "small", "--workers", "3", *plan])

    def test_crash_injection_with_scale_up_steals_and_verifies(self, tmp_path, capsys):
        # A crash-injected run steals like any other run, so a joiner —
        # which acquires work only through steal rounds — rides along, and
        # the crash (on the joiner itself) verifies against the same run
        # without it.
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--bucket-count",
                    "64",
                    "--workers",
                    "3",
                    "--scale-down",
                    "1@2",
                    "--scale-up",
                    "4",
                    "--inject-crash",
                    "3@40",
                    "--checkpoint-every",
                    "windows:3",
                    "--checkpoint-window-ms",
                    "2400",
                    "--verify-recovery",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        assert "recovery parity OK" in capsys.readouterr().out
        snapshot = snapshot_from_json(metrics.read_text(encoding="utf-8"))
        assert metric_value(snapshot, "coordinator.steals") > 0
        assert metric_value(snapshot, "reliability.scale_events") == 2

    def test_verify_recovery_reruns_with_the_same_windows_and_scale_plan(self, capsys):
        # The clean rerun is this run without its faults.  Rerunning
        # without the reliability config dropped the scale-down and the
        # window size and reported a false parity failure.
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--bucket-count",
                    "64",
                    "--workers",
                    "3",
                    "--inject-crash",
                    "2@3",
                    "--scale-down",
                    "1@2",
                    "--checkpoint-every",
                    "windows:2",
                    "--checkpoint-window-ms",
                    "2400",
                    "--verify-recovery",
                ]
            )
            == 0
        )
        assert "recovery parity OK" in capsys.readouterr().out

    def test_window_knob_alone_does_not_enable_reliability(self):
        with pytest.raises(SystemExit, match="requires --checkpoint-dir"):
            main(
                [
                    "run",
                    "--scale",
                    "small",
                    "--checkpoint-window-ms",
                    "1000",
                ]
            )
