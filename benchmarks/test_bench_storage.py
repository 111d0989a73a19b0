"""Benchmarks of the on-disk bucket storage subsystem.

Raw store throughput: ingest rate and sequential read + decode rate (the
physical analogue of the paper's ``Tb``), with the engine taken out.  The
process backend's scaling over a store is measured by
``test_bench_parallel.py`` (``speedup_4x``, ``process_wall_speedup_4x``):
the store does not move the virtual clock.
"""

import os
import time

import pytest

from repro.experiments.common import build_simulator
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

