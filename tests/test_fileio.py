"""Every LifeRaft file, one suite: byte goldens, atomic publish, corruption.

The seven writers — ``.lrbs`` stores, ``.lrcp`` checkpoints, ``.lrtr``
traces, ``.lrrun`` archives, the metrics and span JSON exports and the
SLA envelope fixtures — all frame, publish and reject through
:mod:`repro.fileio`.  The goldens below were recorded before the writers
were routed through it, so they pin that the on-disk bytes never moved.
"""

import errno
import glob
import hashlib
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fileio import FormatError
from repro.htm.curve import HTMRange
from repro.reliability.checkpoint import read_checkpoint, write_checkpoint
from repro.sim.runspec import RunSpec
from repro.sim.simulator import Simulator
from repro.storage.format import BucketFileReader
from repro.storage.ingest import materialize_layout
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.archive import RunArchive, read_run_archive, write_run_archive
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import write_chrome_trace
from repro.workload.envelopes import write_envelope
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from repro.workload.trace_io import read_trace, write_trace

#: A small store (8 buckets x 16 rows) so that every byte offset is cheap.
LAYOUT = BucketPartitioner(objects_per_bucket=16).partition_density(8, total_objects=128)

CHECKPOINT_PAYLOAD = {"queues": [1, 2, 3], "clock": 42.5, "name": "golden"}

TRACE_QUERIES = (
    CrossMatchQuery(query_id=0, bucket_footprint={0: 10, 5: 3}, arrival_time_s=0.5),
    CrossMatchQuery(
        query_id=1,
        bucket_footprint={2: 7},
        arrival_time_s=1.25,
        client_id=3,
        deadline_class="interactive",
    ),
    CrossMatchQuery(
        query_id=2, bucket_footprint={0: 1, 1: 1}, arrival_time_s=2.0, archives=("sdss",)
    ),
    CrossMatchQuery(
        query_id=3,
        objects=(
            CrossMatchObject(
                object_id=77,
                htm_range=HTMRange(8 << 28, (8 << 28) + 10),
                ra=12.5,
                dec=-3.25,
                match_radius_arcsec=2.0,
                magnitude=17.5,
            ),
        ),
        arrival_time_s=3.0,
    ),
)

ARCHIVE = RunArchive(
    spec={"policy": "lifo", "workers": 2},
    result={"result_digest": "abc123", "completed_queries": 7},
    telemetry={"version": 2, "metrics": {}},
    ledger={"version": 1, "queries": [], "totals": {}},
)


def metrics_snapshot() -> dict:
    registry = MetricsRegistry()
    registry.counter("engine.services").inc(12)
    registry.gauge("cache.resident", labels={"tier": "1"}).mark(4)
    registry.histogram("engine.batch_size", bounds=(1, 4, 16)).observe(3)
    registry.series("series.queue_depth", window_ms=100.0).record(2, 7)
    return registry.snapshot()


SPAN_TRACE = {
    "traceEvents": [
        {"name": "bucket 3", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 12.5},
        {"name": "steal", "ph": "i", "pid": 1, "tid": 1, "ts": 4.0, "s": "t"},
    ],
    "displayTimeUnit": "ms",
    "otherData": {"clock": "virtual", "label": "golden"},
}

ENVELOPE = {
    "version": 1,
    "scenario": "golden",
    "query_count": 40,
    "bucket_count": 64,
    "seed": 7,
    "admission": {"offered": 40, "admitted": 38, "rejected": 2, "deferrals": 5},
    "completion": {"completed": 38, "chunks": 90},
    "sla": {"interactive": {"admitted": 20, "completion_hit_rate": 0.95}},
    "result_digest": "0123456789abcdef",
}


def write_store(directory):
    return materialize_layout(
        os.path.join(directory, "site.lrbs"), LAYOUT, rows_per_bucket=16, seed=3
    ).path


def write_lrcp(directory):
    path = os.path.join(directory, "state.lrcp")
    write_checkpoint(path, 3, 7, 42.5, "a" * 16, CHECKPOINT_PAYLOAD, seq=4)
    return path


def write_lrtr(directory):
    path = os.path.join(directory, "trace.lrtr")
    write_trace(path, TRACE_QUERIES, meta={"label": "golden"}, expected_digest="ab" * 32)
    return path


def write_lrrun(directory):
    path = os.path.join(directory, "run.lrrun")
    write_run_archive(path, ARCHIVE)
    return path


def write_metrics(directory):
    path = os.path.join(directory, "metrics.json")
    spec = RunSpec(telemetry=False, metrics_out=path)
    Simulator._export_telemetry(spec, None, metrics_snapshot(), ())
    return path


def write_spans(directory):
    path = os.path.join(directory, "spans.json")
    write_chrome_trace(path, SPAN_TRACE)
    return path


def write_golden_envelope(directory):
    return write_envelope(ENVELOPE, directory)


#: writer -> (function(directory) -> path, sha256 of the bytes it writes).
#: The digests were recorded with the hand-rolled writers the envelope
#: module replaced; they must never be edited to make a change pass.
WRITERS = {
    "lrbs": (write_store, "7c990e9c03a0801c73f2944186b3382747cc1bf17b5aa4b190aab58a7a310ff1"),
    "lrcp": (write_lrcp, "46c9766f127a4747322f154e10bc77ad616d003219ebda23f8c846022ce1c61b"),
    "lrtr": (write_lrtr, "9b0aa83e4bf704cdf1240a7e4f57334815d86869b0fa44ef16b6914cfa61ceae"),
    "lrrun": (write_lrrun, "f367b31b9beceb1b74c685cafde7d23acb23471df9461e7759d34d6957e5b5aa"),
    "metrics": (
        write_metrics,
        "30b2cd0b8478ff9c3b47537fde0e87acf0f82665897d8e335172704e76482a6c",
    ),
    "spans": (write_spans, "f9b93524b19e8b23d59583bc4a9fc157feda958dbaf3ed5d0b17fbd94afd5e94"),
    "envelope": (
        write_golden_envelope,
        "4cf801f94e98c74474a5fa8f1fa7b18097588aea43803d8e2c4731a1dead2e33",
    ),
}


COMMITTED_TRACES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "fixtures", "scenarios", "*.lrtr"))
)


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_bytes_match_the_golden(name, tmp_path):
    write, golden = WRITERS[name]
    assert hashlib.sha256(read_bytes(write(str(tmp_path)))).hexdigest() == golden


@pytest.mark.parametrize("fixture", COMMITTED_TRACES, ids=os.path.basename)
def test_committed_traces_round_trip_byte_identically(fixture, tmp_path):
    trace = read_trace(fixture)
    copy = str(tmp_path / "copy.lrtr")
    write_trace(copy, trace.queries, meta=trace.meta)
    assert read_bytes(copy) == read_bytes(fixture)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_publish_leaves_the_destination_untouched(name, tmp_path, monkeypatch):
    """A rename that fails (here: ENOSPC) raises, keeps the old file, leaves no temp."""
    write, _golden = WRITERS[name]
    path = write(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(b"the previous file")

    def no_space(source, destination):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(OSError):
        write(str(tmp_path))
    assert read_bytes(path) == b"the previous file"
    assert os.listdir(tmp_path) == [os.path.basename(path)]


# --------------------------------------------------------------------- #
# corruption, truncation, version skew: one property suite for all four
# binary formats
# --------------------------------------------------------------------- #


def read_store(path):
    """A store decodes when it opens and every bucket reads."""
    with BucketFileReader(path) as reader:
        buckets = [reader.read_bucket(index) for index in range(len(reader))]
        return reader.layout, reader.surveys, buckets


def read_lrcp(path):
    payload, info = read_checkpoint(path)
    return payload, info.worker_id, info.window_index, info.clock_ms, info.generation


#: format -> (writer, reader, offsets whose flip legitimately decodes equal).
#: Only the ``flags`` field of the two headers without a header CRC is free.
BINARY_FORMATS = {
    "lrbs": (write_store, read_store, set()),
    "lrcp": (write_lrcp, read_lrcp, set()),
    "lrtr": (write_lrtr, read_trace, {6, 7}),
    "lrrun": (write_lrrun, read_run_archive, {6, 7}),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Per format: the intact bytes, their decoded object and a scratch path."""
    directory = tmp_path_factory.mktemp("originals")
    out = {}
    for name, (write, read, _free) in BINARY_FORMATS.items():
        path = write(str(directory))
        out[name] = (read_bytes(path), read(path), str(directory / f"mutant.{name}"))
    return out


def rejects_or_decodes_equal(name, originals, mutant: bytes) -> bool:
    """Write *mutant*; True if it decodes equal, False if it raises FormatError.

    Anything else a reader raises — ``struct.error``, ``IndexError``, a
    decoder or pickle error — escapes and fails the test, and so does a
    decode to a different object.
    """
    _data, expected, scratch = originals[name]
    with open(scratch, "wb") as handle:
        handle.write(mutant)
    try:
        decoded = BINARY_FORMATS[name][1](scratch)
    except FormatError:
        return False
    assert decoded == expected
    return True


@pytest.mark.parametrize("name", sorted(BINARY_FORMATS))
def test_every_truncation_is_rejected(name, originals):
    data = originals[name][0]
    for length in range(len(data)):
        assert not rejects_or_decodes_equal(name, originals, data[:length]), length


@pytest.mark.parametrize("name", sorted(BINARY_FORMATS))
def test_every_byte_flip_is_rejected_unless_unchecked(name, originals):
    data = originals[name][0]
    harmless = set()
    for offset in range(len(data)):
        mutant = bytearray(data)
        mutant[offset] ^= 0xFF
        if rejects_or_decodes_equal(name, originals, bytes(mutant)):
            harmless.add(offset)
    assert harmless == BINARY_FORMATS[name][2]


@pytest.mark.parametrize("name", sorted(BINARY_FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_damage_is_rejected_or_harmless(name, originals, data):
    """Any mix of bit flips plus an optional truncation."""
    blob = bytearray(originals[name][0])
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[offset] ^= data.draw(st.integers(1, 255), label="mask")
    length = data.draw(st.integers(0, len(blob)), label="length")
    rejects_or_decodes_equal(name, originals, bytes(blob[:length]))


@pytest.mark.parametrize("name", sorted(BINARY_FORMATS))
def test_version_plus_one_is_rejected(name, originals):
    data = bytearray(originals[name][0])
    version = int.from_bytes(data[4:6], "little")
    data[4:6] = (version + 1).to_bytes(2, "little")
    scratch = originals[name][2]
    with open(scratch, "wb") as handle:
        handle.write(data)
    with pytest.raises(FormatError, match="version"):
        BINARY_FORMATS[name][1](scratch)


@pytest.mark.parametrize("name", sorted(BINARY_FORMATS))
def test_missing_path_is_rejected(name, tmp_path):
    assert issubclass(FormatError, ValueError)
    with pytest.raises(FormatError, match="absent"):
        BINARY_FORMATS[name][1](str(tmp_path / f"absent.{name}"))


# --------------------------------------------------------------------- #
# the CLI: a bad --store-path is a one-line error, not a traceback
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("damage", ["missing", "garbage"])
@pytest.mark.parametrize("command", ["run", "serve", "replay"])
def test_bad_store_path_exits_with_a_message(command, damage, tmp_path, capsys):
    store = str(tmp_path / "site.lrbs")
    if damage == "garbage":
        # The CI smoke's `head -c 100` copy of a real store.
        store = write_store(str(tmp_path))
        with open(store, "r+b") as handle:
            handle.truncate(100)
    argv = {
        "run": ["run", "--scale", "small"],
        "serve": ["serve", "--scale", "small"],
        "replay": ["replay", write_lrtr(str(tmp_path))],
    }[command]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--store-path", store])
    assert "bucket store" in str(exited.value.code)
    assert store in str(exited.value.code)
    assert "Traceback" not in capsys.readouterr().err
