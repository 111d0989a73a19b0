"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, worker_sweep


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
        with pytest.raises(ValueError, match="unknown deadline class"):
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

    def test_parallel_ingest_is_byte_identical_to_serial(self, tmp_path):
        serial = tmp_path / "serial.lrbs"
        parallel = tmp_path / "parallel.lrbs"
        base = ["ingest", "--scale", "small", "--bucket-count", "32", "--rows-per-bucket", "16"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--workers", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_ingest_rejects_non_positive_workers(self, tmp_path):
        out = str(tmp_path / "w.lrbs")
        with pytest.raises(SystemExit):
            main(["ingest", "--scale", "small", "--workers", "0", "--out", out])

    def test_ingest_rejects_non_positive_rows_per_bucket(self, tmp_path):
        out = str(tmp_path / "r.lrbs")
        with pytest.raises(SystemExit):
            main(["ingest", "--scale", "small", "--rows-per-bucket", "0", "--out", out])

    def test_sky_mode_rejects_parallel_workers(self, tmp_path):
        out = str(tmp_path / "s.lrbs")
        with pytest.raises(SystemExit, match="density ingests only"):
            main(["ingest", "--sky-objects", "100", "--workers", "2", "--out", out])

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
        output = capsys.readouterr().out
        assert "reliability:" in output
        assert "recovery parity OK" in output

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

    def test_verify_recovery_requires_inject_crash(self):
        with pytest.raises(SystemExit, match="requires --inject-crash"):
            main(["run", "--scale", "small", "--verify-recovery"])

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
