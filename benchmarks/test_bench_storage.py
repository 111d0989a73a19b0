"""Benchmarks of the on-disk bucket storage subsystem.

Raw store throughput: ingest rate and sequential read + decode rate (the
physical analogue of the paper's ``Tb``), with the engine taken out.  The
process backend's scaling over a store is measured by
``test_bench_parallel.py`` (``speedup_4x``, ``process_wall_speedup_4x``):
the store does not move the virtual clock.

``ingest_speedup_vs_row_path`` is the density ingest's encode step —
columns synthesised and packed per bucket — against the row path it
replaced (``tests/storage/ingest_oracle.py``: one row object per synthetic
row, columns pulled back out of them), timed in turns in this process: a
dimensionless number a slow runner cannot move.  So is
``columnar_decode_speedup_vs_strict``: the zero-copy columnar scan of a
store against the strict ``decode_bucket_page`` scan (row order re-checked,
row objects built) of the same file, where the absolute
``columnar_decode_mb_per_s`` beside it moves with the host's load.
"""

import os
import statistics
import time

import pytest

from repro.experiments.common import build_simulator
from repro.storage.disk_store import open_disk_store
from repro.storage.format import BucketFileReader
from repro.storage.ingest import DEFAULT_ROWS_PER_BUCKET, encode_synthetic_page, materialize_layout
from tests.storage.ingest_oracle import density_page

#: Physical rows per bucket for the benchmark stores: enough bytes that a
#: bucket read is real work, small enough that ingest stays in seconds.
BENCH_ROWS_PER_BUCKET = 256

#: The columnar density encode must stay at least this many times faster
#: than the row path it replaced.
MIN_INGEST_SPEEDUP_VS_ROW_PATH = 2.5


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

    def strict_scan():
        with BucketFileReader(bench_store.path) as reader:
            return sum(len(reader.read_bucket(index)[1]) for index in range(len(reader)))

    rows, _checksum = benchmark.pedantic(scan, rounds=5, iterations=1)
    assert rows == bench_store.total_rows == strict_scan()
    elapsed = min(timings)
    megabytes = bench_store.file_bytes / 1e6
    benchmark.extra_info["file_megabytes"] = round(megabytes, 2)
    benchmark.extra_info["rows_decoded"] = rows
    if elapsed > 0:
        benchmark.extra_info["columnar_decode_mb_per_s"] = round(megabytes / elapsed, 2)
        benchmark.extra_info["columnar_rows_per_s"] = round(rows / elapsed, 0)
    # Both whole scans timed back to back, which goes first flipping every
    # pair; the ratio is the median pair's.
    ratios = []
    for pair in range(9):
        seconds = {}
        for side in (scan, strict_scan) if pair % 2 == 0 else (strict_scan, scan):
            started = time.perf_counter()
            side()
            seconds[side] = time.perf_counter() - started
        ratios.append(seconds[strict_scan] / seconds[scan])
    benchmark.extra_info["columnar_decode_speedup_vs_strict"] = round(statistics.median(ratios), 3)


def test_bench_store_ingest(benchmark, tmp_path, scale):
    """Density ingest rate: synthesise + encode + CRC + write one columnar page per bucket."""
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


def test_bench_ingest_vs_row_path(benchmark, scale):
    """Density encode of 64 buckets at the default page size, live vs row path.

    The ratio is the median of per-pair ratios over live/row-path pairs
    timed back to back (which side goes first flips every pair), so a burst
    of host load spoils a pair or two instead of one side's best-of.
    """
    layout = build_simulator(scale).layout
    tasks = [(spec, min(spec.object_count, DEFAULT_ROWS_PER_BUCKET)) for spec in layout][:64]
    seed = 8675309

    def live():
        return [encode_synthetic_page(spec, rows, seed)[0] for spec, rows in tasks]

    def row_path():
        return [density_page(spec, rows, seed) for spec, rows in tasks]

    assert live() == row_path()
    benchmark.pedantic(live, rounds=5, iterations=1)
    ratios = []
    for pair in range(9):
        seconds = {}
        for side in (live, row_path) if pair % 2 == 0 else (row_path, live):
            started = time.perf_counter()
            side()
            seconds[side] = time.perf_counter() - started
        ratios.append(seconds[row_path] / seconds[live])
    speedup = statistics.median(ratios)
    rows = sum(count for _, count in tasks)
    benchmark.extra_info["rows_encoded"] = rows
    benchmark.extra_info["ingest_speedup_vs_row_path"] = round(speedup, 3)
    assert speedup >= MIN_INGEST_SPEEDUP_VS_ROW_PATH, (
        f"the columnar density encode is only {speedup:.2f}x the row path it "
        f"replaced (per-pair ratios {sorted(round(r, 2) for r in ratios)})"
    )
