"""Benchmarks of the on-disk bucket storage subsystem.

Two measurements: raw store throughput (ingest rate, sequential read +
decode rate — the physical analogue of the paper's ``Tb``), and the
worker-scaling experiment replayed against materialised on-disk buckets,
where the process backend's wall-clock speedup finally reflects real
storage work (seeks, reads, CRC checks, columnar decoding) rather than
cost-model arithmetic.
"""

import os
import time

import pytest

from benchmarks.conftest import record_headline
from repro.experiments import scaling
from repro.experiments.common import build_simulator, build_trace
from repro.storage.disk_store import open_disk_store
from repro.storage.format import BucketFileReader
from repro.storage.ingest import materialize_layout

#: Physical rows per bucket for the benchmark stores: enough bytes that a
#: bucket read is real work, small enough that ingest stays in seconds.
BENCH_ROWS_PER_BUCKET = 256


@pytest.fixture(scope="module")
def bench_store(tmp_path_factory, scale):
    """One ingested store file shared by the storage benchmarks."""
    simulator = build_simulator(scale)
    path = tmp_path_factory.mktemp("bench-store") / "site.lrbs"
    manifest = materialize_layout(path, simulator.layout, rows_per_bucket=BENCH_ROWS_PER_BUCKET)
    return manifest


def test_bench_store_read_throughput(benchmark, bench_store):
    """Sequential scan of every bucket page: seek, read, CRC, decode."""

    timings = []

    def scan():
        # Tier-2 disabled: every read is a physical page read + decode.
        with open_disk_store(bench_store.path, page_cache_buckets=0) as store:
            rows = 0
            for index in range(len(store.layout)):
                rows += len(store.bucket_image(index).columns.rows())
            timings.append(store.real_read_s)
            return rows

    rows = benchmark.pedantic(scan, rounds=5, iterations=1)
    assert rows == bench_store.total_rows
    real_read_s = min(timings)
    megabytes = bench_store.file_bytes / 1e6
    benchmark.extra_info["file_megabytes"] = round(megabytes, 2)
    benchmark.extra_info["rows_decoded"] = rows
    if real_read_s > 0:
        # Best-of-rounds: the ratchet compares this number across machines,
        # so report capability, not scheduler noise.
        benchmark.extra_info["read_decode_mb_per_s"] = round(megabytes / real_read_s, 2)
    # Decoding a full site must stay interactive on one core.
    assert real_read_s < 60.0


def test_bench_store_columnar_scan(benchmark, bench_store):
    """Zero-copy columnar scan: mmap window, CRC check, column casts.

    This is the kernel-facing read path — every bucket page is checked and
    decoded into :class:`~repro.storage.format.ColumnBlock` column views,
    but no row objects are built.  The recorded throughput is the number
    the bench ratchet protects: it must stay well above the pre-columnar
    row-at-a-time decode rate (~22 MB/s on the reference container).
    """

    timings = []

    def scan():
        with BucketFileReader(bench_store.path) as reader:
            started = time.perf_counter()
            rows = 0
            checksum = 0
            for index in range(len(reader)):
                block = reader.read_bucket_block(index)
                rows += len(block)
                if len(block):
                    # Touch the first and last element of a column so the
                    # kernel cannot elide the page read entirely.
                    checksum ^= block.htm_ids[0] ^ block.htm_ids[len(block) - 1]
            timings.append(time.perf_counter() - started)
            return rows, checksum

    rows, _checksum = benchmark.pedantic(scan, rounds=5, iterations=1)
    assert rows == bench_store.total_rows
    elapsed = min(timings)
    megabytes = bench_store.file_bytes / 1e6
    benchmark.extra_info["file_megabytes"] = round(megabytes, 2)
    benchmark.extra_info["rows_decoded"] = rows
    if elapsed > 0:
        benchmark.extra_info["columnar_decode_mb_per_s"] = round(megabytes / elapsed, 2)
        benchmark.extra_info["columnar_rows_per_s"] = round(rows / elapsed, 0)


def test_bench_store_ingest(benchmark, tmp_path, scale):
    """Serial ingest rate: encode + CRC + write one columnar page per bucket."""
    simulator = build_simulator(scale)
    counter = iter(range(1_000_000))
    timings = []

    def ingest():
        path = tmp_path / f"ingest-{next(counter)}.lrbs"
        started = time.perf_counter()
        manifest = materialize_layout(path, simulator.layout, rows_per_bucket=BENCH_ROWS_PER_BUCKET)
        timings.append(time.perf_counter() - started)
        os.unlink(path)
        return manifest

    manifest = benchmark.pedantic(ingest, rounds=5, iterations=1)
    elapsed = min(timings)
    benchmark.extra_info["rows_ingested"] = manifest.total_rows
    benchmark.extra_info["file_megabytes"] = round(manifest.file_bytes / 1e6, 2)
    if elapsed > 0:
        benchmark.extra_info["ingest_rows_per_s"] = round(manifest.total_rows / elapsed, 0)


def test_bench_storage_process_backend(benchmark, tmp_path):
    """Wall-clock speedup of 4 shard processes reading on-disk buckets.

    This is the measurement PR 4 exists for: the ROADMAP flagged that the
    process backend's wall-clock speedup was fragile at small partitions
    because the per-service work was cost-model arithmetic.  With the
    scaling experiment replaying against materialised buckets, every
    service moves and decodes real bytes, so the speedup reflects real
    storage work.  A paper-sized partition is used regardless of the
    bench scale (as in the plain process-backend bench); the wall-clock
    assertion is gated on the host actually having cores to parallelise
    over, while the JSON artifact records the measurement either way.
    """
    heavy_simulator = build_simulator("full")
    heavy_trace = build_trace("full")
    store_path = tmp_path / "bench-site.lrbs"
    materialize_layout(store_path, heavy_simulator.layout, rows_per_bucket=BENCH_ROWS_PER_BUCKET)
    result = benchmark.pedantic(
        scaling.run,
        kwargs={
            "trace": heavy_trace,
            "simulator": heavy_simulator,
            "workers": (1, 4),
            "backend": "process",
            "store_path": str(store_path),
        },
        rounds=1,
        iterations=1,
    )
    record_headline(benchmark, result)
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1
    benchmark.extra_info["backend"] = "process"
    benchmark.extra_info["store"] = "file-backed"
    # Virtual-clock scheduling quality is store- and backend-invariant.
    assert result.headline["speedup_4x"] > 1.5
    # Every row must have performed real physical reads ("real read (s)"
    # is the last column of the scaling table).
    assert all(row[-1] > 0.0 for row in result.rows)
    assert "wall_speedup_4x" in result.headline
    assert result.headline["wall_speedup_4x"] > 0.0
    if (os.cpu_count() or 1) >= 4:
        # With real cores behind the processes — and real storage work in
        # every bucket service — four shards must beat one in measured
        # wall-clock time.
        assert result.headline["wall_speedup_4x"] > 1.0
