"""Benchmark of the per-query cost ledger build against the builder it replaced.

A run with telemetry on assembles its ledger after the last service, so
the build is wall time every such run pays.  What is ratcheted is the
*ratio*: ``ledger_speedup_vs_oracle`` — the replaced builder's time
(``tests/telemetry/ledger_oracle.py``: a frozen record per service and a
``dict(zip(...))`` per served query) over the row-based builder's, both
timed in the same process on the same records, so a slower machine moves
both sides alike.  ``ledger_build_ms`` rides beside it.  The baseline
lives in ``BENCH_service.json`` at the repository root (``--bench-json``;
compare with ``benchmarks.ratchet``).
"""

import random
import time

from repro.telemetry.ledger import build_run_ledger
from tests.telemetry.helpers import serial_batch
from tests.telemetry.ledger_oracle import oracle_run_ledger

#: The row-based builder must stay at least this much faster than the oracle.
MIN_SPEEDUP = 1.3


def run_records(services: int = 2_000, seed: int = 7):
    """Serial batch results shaped like a shallow LifeRaft run's.

    Most services batch a few queries; every service takes 50–1,250 ms and
    a third of them are cache hits, so both cost splits are exercised.
    """
    rng = random.Random(seed)
    records = []
    now_ms = 0.0
    next_query = 0
    for bucket_service in range(services):
        width = rng.choice((1, 1, 2, 3, 4, 6, 9))
        queries = sorted(rng.sample(range(max(0, next_query - 60), next_query + 10), width))
        next_query += rng.choice((0, 1, 1, 2))
        cost_ms = rng.uniform(50.0, 1_250.0)
        io_ms = 0.0 if bucket_service % 3 == 0 else cost_ms * 0.8
        records.append(
            serial_batch(
                rng.randrange(512),
                now_ms,
                now_ms + cost_ms,
                queries=queries,
                objects=[rng.randint(1, 40) for _ in queries],
                io_ms=io_ms,
                match_ms=cost_ms - io_ms,
            )
        )
        now_ms += cost_ms
    return records


def best_seconds(builds, records, samples: int = 9):
    """Best-of-*samples* wall seconds of one ledger build over *records*, per build.

    The builds take turns within each sample, so a change in the host's
    load moves both sides of the ratio alike.
    """
    best = [float("inf")] * len(builds)
    for _ in range(samples):
        for slot, build in enumerate(builds):
            started = time.perf_counter()
            build(records)
            best[slot] = min(best[slot], time.perf_counter() - started)
    return best


def test_bench_ledger_build_vs_oracle(benchmark):
    records = run_records()
    ledger = benchmark.pedantic(build_run_ledger, args=(records,), rounds=5, iterations=1)
    assert ledger == oracle_run_ledger(records)
    build_s, oracle_s = best_seconds((build_run_ledger, oracle_run_ledger), records)
    speedup = oracle_s / build_s
    benchmark.extra_info["ledger_services"] = len(records)
    benchmark.extra_info["ledger_build_ms"] = round(build_s * 1e3, 3)
    benchmark.extra_info["ledger_oracle_ms"] = round(oracle_s * 1e3, 3)
    benchmark.extra_info["ledger_speedup_vs_oracle"] = round(speedup, 3)
    assert speedup >= MIN_SPEEDUP, (
        f"the ledger builds only {speedup:.2f}x faster than the builder it replaced "
        f"({oracle_s * 1e3:.1f} -> {build_s * 1e3:.1f} ms)"
    )
