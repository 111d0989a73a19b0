"""Benchmarks of the columnar crossmatch kernel on the ``crossmatch_file`` shape.

One bucket service of the repo benchmark's full-fidelity workload is ≈ 86
workload objects against a 100-row block, ≈ 4 candidates per object inside
the HTM window and ≈ 0.9 matches per object.  The fixed synthetic service
below has that shape.  What is ratcheted is ``kernel_speedup_vs_row_path`` —
the kernel over a decoded :class:`~repro.storage.format.ColumnBlock` against
the reference row merge (``tests/core/join_oracle.py``) over the same rows,
both best-of-N in this process, a dimensionless number a slow runner cannot
move — and, beside it, the absolute ``crossmatch_objects_per_s``.  Measured
twice: with the matches only counted (what every engine does) and with
every :class:`~repro.core.kernels.MatchedPair` materialised.
``BENCH_kernels.json`` at the repository root is the committed baseline
(``--bench-json``; compare with ``benchmarks.ratchet``).
"""

import random
import time

import pytest

from repro.catalog.objects import CelestialObject
from repro.core.kernels import crossmatch_block
from repro.core.workload_manager import WorkloadEntry
from repro.htm.curve import HTMRange
from repro.storage.format import decode_column_block, encode_bucket_page
from repro.workload.query import CrossMatchObject
from tests.core.join_oracle import merge_join

#: The kernel must stay at least this many times faster than the row path.
MIN_SPEEDUP_VS_ROW_PATH = 2.0

ROWS = 100
OBJECTS = 86
RADIUS_ARCSEC = 3.0
ARCSEC = 1.0 / 3600.0
CURVE_START = 8 << 28


def dense_service(seed: int = 17):
    """``(rows, entries)``: one dense block and the queue of one service.

    Rows run diagonally across a small patch, 20″ apart in both
    coordinates and 10 HTM IDs apart, so a ±20-ID window holds 4–5
    candidates of which only the object's own counterpart is within 3″.
    Nine objects in ten sit within 1″ of a row; the rest sit 8″ off.
    """
    rng = random.Random(seed)
    rows = [
        CelestialObject(
            object_id=i,
            ra=150.0 + 20.0 * ARCSEC * i,
            dec=-20.0 + 20.0 * ARCSEC * i,
            htm_id=CURVE_START + 10 * i,
            magnitude=18.0 + (i % 5),
            survey="sdss",
        )
        for i in range(ROWS)
    ]
    shipped = []
    for row in rng.sample(rows, OBJECTS):
        offset = rng.uniform(0.0, 1.0) if rng.random() < 0.9 else 8.0
        shipped.append(
            CrossMatchObject(
                object_id=row.object_id,
                htm_range=HTMRange(row.htm_id - 20, row.htm_id + 20),
                ra=row.ra + offset * ARCSEC / 2.0,
                dec=row.dec - offset * ARCSEC / 2.0,
                match_radius_arcsec=RADIUS_ARCSEC,
            )
        )
    # Three queries share the service, as in a batched bucket read.
    entries = [
        WorkloadEntry(query_id, len(shipped[query_id::3]), 0.0, tuple(shipped[query_id::3]))
        for query_id in range(3)
    ]
    return rows, entries


def best_seconds(call, samples: int = 30, calls: int = 20) -> float:
    """Best-of-*samples* seconds of one *call* (mean over *calls*)."""
    best = float("inf")
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - started)
    return best / calls


@pytest.mark.parametrize("consume", [False, True], ids=["counted", "materialised"])
def test_bench_crossmatch_kernel_vs_row_path(benchmark, consume):
    rows, entries = dense_service()
    page = encode_bucket_page([row.htm_id for row in rows], rows, {"sdss": 0})
    # A resident block: its memos are warm, as 88 % of the benchmark's services find them.
    block = decode_column_block(page, ("sdss",))

    def kernel():
        matches, per_query = crossmatch_block(block, entries)
        return (list(matches) if consume else matches), per_query

    def row_path():
        return merge_join(rows, entries)

    matches, per_query = benchmark.pedantic(kernel, rounds=200, iterations=1)
    reference, reference_per_query = row_path()
    assert list(matches) == reference and per_query == reference_per_query
    candidates = sum(
        sum(1 for row in rows if row.htm_id in obj.htm_range) for e in entries for obj in e.objects
    )
    kernel_s, row_path_s = best_seconds(kernel), best_seconds(row_path)
    speedup = row_path_s / kernel_s
    benchmark.extra_info["candidates_per_object"] = round(candidates / OBJECTS, 3)
    benchmark.extra_info["matches_per_object"] = round(len(reference) / OBJECTS, 3)
    benchmark.extra_info["crossmatch_objects_per_s"] = round(OBJECTS / kernel_s, 1)
    benchmark.extra_info["row_path_objects_per_s"] = round(OBJECTS / row_path_s, 1)
    benchmark.extra_info["kernel_speedup_vs_row_path"] = round(speedup, 3)
    assert speedup >= MIN_SPEEDUP_VS_ROW_PATH, (
        f"the columnar kernel is only {speedup:.2f}x the row path "
        f"({OBJECTS / kernel_s:,.0f} vs {OBJECTS / row_path_s:,.0f} objects/s)"
    )
