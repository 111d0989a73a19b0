"""The ``.lrrun`` run-archive codec and the ``compare`` drift grading.

The codec half pins exact round trips and the JSON-payload checks;
truncation, bit flips, wrong magic and version skew are covered for every
format at once by ``tests/test_fileio.py``.
The compare half grades drift the way the CLI's exit code does: 0 for
two runs of the same spec, 1 for telemetry/ledger drift, 2 the moment
the result digests disagree.
"""

import json
import struct

import pytest

from repro.fileio import FormatError, crc32
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.telemetry.archive import (
    ARCHIVE_MAGIC,
    ARCHIVE_VERSION,
    RunArchive,
    compare_archives,
    describe_run_spec,
    read_run_archive,
    render_compare,
    summarise_result,
    write_run_archive,
)
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 64
_HEADER = struct.Struct("<4sHHQI")


@pytest.fixture(scope="module")
def simulator():
    return Simulator(SimulationConfig(bucket_count=BUCKETS))


@pytest.fixture(scope="module")
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


def sample_archive():
    return RunArchive(
        spec={"policy": "lifo", "workers": 2},
        result={"result_digest": "abc123", "completed_queries": 7},
        telemetry={"version": 1, "metrics": [], "series": [], "events": []},
        ledger={"version": 1, "queries": [], "totals": {}},
    )


class TestCodec:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "run.lrrun"
        archive = sample_archive()
        size = write_run_archive(str(path), archive)
        assert size == path.stat().st_size
        loaded = read_run_archive(str(path))
        assert loaded == archive
        assert loaded.result_digest == "abc123"

    def test_none_sections_survive(self, tmp_path):
        path = tmp_path / "bare.lrrun"
        archive = RunArchive(spec={}, result={}, telemetry=None, ledger=None)
        write_run_archive(str(path), archive)
        loaded = read_run_archive(str(path))
        assert loaded.telemetry is None and loaded.ledger is None
        assert loaded.result_digest == ""

    def test_header_magic_and_version(self, tmp_path):
        path = tmp_path / "run.lrrun"
        write_run_archive(str(path), sample_archive())
        magic, version, _flags, body_len, _crc = _HEADER.unpack_from(path.read_bytes())
        assert magic == ARCHIVE_MAGIC
        assert version == ARCHIVE_VERSION
        assert _HEADER.size + body_len == path.stat().st_size

    def test_no_temp_file_left_behind(self, tmp_path):
        write_run_archive(str(tmp_path / "run.lrrun"), sample_archive())
        assert [p.name for p in tmp_path.iterdir()] == ["run.lrrun"]

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "run.lrrun"
        body = json.dumps([1, 2, 3]).encode("utf-8")
        header = _HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, 0, len(body), crc32(body))
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match="not an object"):
            read_run_archive(str(path))


class TestSpecAndResultDescriptions:
    def test_describe_run_spec_is_json_safe(self):
        described = describe_run_spec(
            RunSpec(backend="virtual", workers=4, enable_stealing=False, label="x")
        )
        assert json.loads(json.dumps(described)) == described
        assert described["backend"] == "virtual"
        assert described["workers"] == 4
        assert described["reliability"] is None

    def test_serial_spec_describes_serial_backend(self):
        assert describe_run_spec(RunSpec())["backend"] == "serial"

    def test_summarise_result_carries_digest(self, simulator, timed_queries):
        result = simulator.execute(timed_queries, RunSpec())
        summary = summarise_result(result)
        assert summary["result_digest"] == result.result_digest
        assert summary["completed_queries"] == result.completed_queries
        assert json.loads(json.dumps(summary)) == summary


class TestCompareDriftGrades:
    @pytest.fixture(scope="class")
    def archived_pair(self, simulator, timed_queries, tmp_path_factory):
        """Two independent runs of the identical spec, archived."""
        root = tmp_path_factory.mktemp("archives")
        paths = []
        for name in ("a.lrrun", "b.lrrun"):
            path = root / name
            simulator.execute(timed_queries, RunSpec(archive_out=str(path)))
            paths.append(str(path))
        return tuple(read_run_archive(path) for path in paths)

    def test_identical_spec_runs_compare_clean(self, archived_pair):
        report = compare_archives(*archived_pair)
        assert report.exit_code == 0
        assert not report.digest_drift and not report.telemetry_drift
        assert report.metric_rows == [] and report.ledger_rows == []
        assert "no drift" in render_compare(report)

    def test_different_policy_grades_digest_drift(
        self, simulator, timed_queries, archived_pair, tmp_path
    ):
        path = tmp_path / "other.lrrun"
        simulator.execute(
            timed_queries, RunSpec(policy="round_robin", archive_out=str(path))
        )
        report = compare_archives(archived_pair[0], read_run_archive(str(path)))
        assert report.digest_drift
        assert report.exit_code == 2
        assert any(key == "spec.policy" for key, _, _ in report.spec_rows)
        assert "digest DRIFT" in render_compare(report)

    def test_ledger_drift_alone_grades_exit_one(self, archived_pair):
        a, b = archived_pair
        tampered_ledger = json.loads(json.dumps(b.ledger))
        tampered_ledger["queries"][0]["makespan_ms"] += 1.0
        tampered = RunArchive(
            spec=b.spec, result=b.result, telemetry=b.telemetry, ledger=tampered_ledger
        )
        report = compare_archives(a, tampered)
        assert not report.digest_drift
        assert report.telemetry_drift
        assert report.exit_code == 1
        assert any(status == "changed" for _, status, _ in report.ledger_rows)
        assert "telemetry drift" in render_compare(report)

    def test_archive_ledger_matches_live_result(self, simulator, timed_queries, tmp_path):
        path = tmp_path / "live.lrrun"
        result = simulator.execute(timed_queries, RunSpec(archive_out=str(path)))
        archive = read_run_archive(str(path))
        assert archive.ledger == result.ledger
        assert archive.result_digest == result.result_digest
        assert archive.telemetry == json.loads(json.dumps(result.telemetry))
