"""Benchmark ratchet: compare two ``--bench-json`` snapshots, fail on regression.

The committed baselines (``BENCH_storage.json``, ``BENCH_parallel.json``,
``BENCH_scheduler.json``, ``BENCH_kernels.json``, ``BENCH_service.json``,
``BENCH_recovery.json`` at the repository root) pin the performance the storage
and parallel subsystems, the scheduler, the crossmatch kernel, the serving gate
and the checkpoint codec have already demonstrated.
CI reruns the same benchmarks, writes a candidate snapshot with
``--bench-json``, and this module compares the two::

    python -m benchmarks.ratchet BENCH_storage.json candidate.json

A candidate fails when any ratcheted metric falls more than ``--tolerance``
(default 15%) below the baseline, or when a baselined benchmark disappears
from the candidate run.  Only metrics named in :data:`RATCHETED_METRICS` are
compared: virtual-clock speedups are deterministic and must never drift;
the wall-clock throughput rates are the numbers the zero-copy columnar read
path exists for, and the tolerance absorbs machine-to-machine noise.
Metrics absent from the baseline entry are ignored, so new measurements can
be introduced without invalidating old snapshots.

To advance the ratchet after a real improvement, regenerate the baseline::

    pytest benchmarks/test_bench_storage.py --bench-json BENCH_storage.json

and commit the result.  Never regenerate it to paper over a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

#: Metric name -> direction.  ``higher`` means the candidate must not fall
#: more than the tolerance below the baseline; ``lower`` the reverse.
RATCHETED_METRICS: Dict[str, str] = {
    # storage: zero-copy read path and ingest
    "read_decode_mb_per_s": "higher",
    "columnar_decode_mb_per_s": "higher",
    # storage: the zero-copy columnar scan over the strict row-object decode
    # of the same store, both timed in one process in turns — dimensionless,
    # where the absolute rate beside it moves with the host's load
    "columnar_decode_speedup_vs_strict": "higher",
    "columnar_rows_per_s": "higher",
    "ingest_rows_per_s": "higher",
    # storage: the columnar density encode over the row-object path it
    # replaced (tests/storage/ingest_oracle.py), both timed in one process
    # in turns — dimensionless
    "ingest_speedup_vs_row_path": "higher",
    # parallel: virtual-clock scaling quality (deterministic)
    "speedup_2x": "higher",
    "speedup_4x": "higher",
    # parallel: real wall clock of 4 warm worker processes over 1 (the
    # process-backend benchmark only; needs as many cores as the baseline's
    # ``cpu_count`` to hold)
    "process_wall_speedup_4x": "higher",
    # scheduler: one decision must not scale with the pending set — the
    # dimensionless growth (µs at 4,096 pending ÷ µs at 256) is the ratchet
    # a slower machine cannot move; the absolute figure rides beside it
    "decision_growth_16x": "lower",
    "decision_us_at_4096": "lower",
    # scheduler: the live decision over the threshold walk it replaced (one
    # ``ua`` closure call per score, tests/core/scheduler_oracle.py), both
    # timed in one process in turns — dimensionless
    "decision_speedup_vs_walk": "higher",
    # scheduler: a NoShare partial drain must not rescan its queue — µs per
    # drain at queue depth 1,024 ÷ µs at 64, with the absolute figure beside it
    "partial_drain_growth_16x": "lower",
    "partial_drain_us_at_1024": "lower",
    # kernels: the columnar crossmatch kernel over the row-at-a-time merge
    # join on one dense service, both timed in the same process — again a
    # dimensionless ratio with the absolute rate beside it
    "kernel_speedup_vs_row_path": "higher",
    "crossmatch_objects_per_s": "higher",
    # kernels: the same ratio on a service whose three queries ship
    # overlapping runs of one object list — the kernel refines each distinct
    # object once per service, the row path every pair — dimensionless
    "shared_kernel_speedup_vs_row_path": "higher",
    # kernels: the pre-processor's run assignment over one layout search per
    # object (tests/core/preprocessor_oracle.py) on one HTM-coherent query,
    # both timed in one process in turns — dimensionless
    "assign_speedup_vs_per_object": "higher",
    # kernels: the flat, memoised cone cover over the Trixel walk it replaced
    # (tests/htm/cover_oracle.py) on 3-arcsecond error circles at level 12,
    # both timed in one process in turns — dimensionless
    "cover_speedup_vs_oracle": "higher",
    # kernels: the flat HTM point location over the memoised Trixel walk it
    # replaced (tests/htm/locate_oracle.py) on 1,000 sky positions at level
    # 14, both timed in one process in turns — dimensionless
    "locate_speedup_vs_oracle": "higher",
    # service: one event at the serving gate must not scale with the
    # admitted-but-undrained backlog — µs at 4,096 in-flight admissions ÷ µs
    # at 256, dimensionless, with the absolute figure beside it
    "intake_growth_16x": "lower",
    "intake_us_per_event_at_4096": "lower",
    # telemetry: the per-query ledger build over the builder it replaced
    # (tests/telemetry/ledger_oracle.py), both timed in one process
    "ledger_speedup_vs_oracle": "higher",
    # reliability: one shard's .lrcp size at a fixed mid-run barrier of a
    # deterministic run — a checkpoint carries live state only (the stage
    # as a length, finished queries as columns), so this is exact
    "shard_checkpoint_bytes": "lower",
}

#: Default allowed relative regression before the ratchet fails.
DEFAULT_TOLERANCE = 0.15


def load_snapshot(path: str) -> dict:
    """Read one ``--bench-json`` snapshot, validating its shape."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or "benchmarks" not in snapshot:
        raise SystemExit(f"{path}: not a bench snapshot (missing 'benchmarks' key)")
    return snapshot


def compare(
    baseline: dict, candidate: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[str], List[str]]:
    """Compare *candidate* against *baseline*.

    Returns ``(failures, report)``: human-readable failure lines (empty when
    the ratchet holds) and a line-per-metric comparison report.
    """
    failures: List[str] = []
    report: List[str] = []
    base_scale = baseline.get("scale")
    cand_scale = candidate.get("scale")
    if base_scale != cand_scale:
        failures.append(
            f"scale mismatch: baseline ran at {base_scale!r}, candidate at "
            f"{cand_scale!r} — the comparison is meaningless"
        )
        return failures, report
    for name, base_entry in sorted(baseline["benchmarks"].items()):
        cand_entry = candidate["benchmarks"].get(name)
        if cand_entry is None:
            failures.append(f"{name}: present in baseline but missing from candidate run")
            continue
        base_info = base_entry.get("extra_info", {})
        cand_info = cand_entry.get("extra_info", {})
        for metric, direction in RATCHETED_METRICS.items():
            if metric not in base_info:
                continue
            base_value = float(base_info[metric])
            if metric not in cand_info:
                failures.append(f"{name}: candidate no longer records {metric}")
                continue
            cand_value = float(cand_info[metric])
            if base_value == 0.0:
                continue
            if direction == "higher":
                ratio = cand_value / base_value
                regressed = ratio < 1.0 - tolerance
            else:
                ratio = base_value / cand_value if cand_value else 0.0
                regressed = ratio < 1.0 - tolerance
            verdict = "REGRESSED" if regressed else "ok"
            report.append(
                f"{name}.{metric}: baseline {base_value:g}, candidate "
                f"{cand_value:g} ({ratio:.2f}x) {verdict}"
            )
            if regressed:
                failures.append(
                    f"{name}: {metric} regressed beyond {tolerance:.0%} — "
                    f"baseline {base_value:g}, candidate {cand_value:g}"
                )
    return failures, report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ratchet",
        description="Fail when a candidate bench snapshot regresses past the baseline.",
    )
    parser.add_argument("baseline", help="committed baseline snapshot (BENCH_*.json)")
    parser.add_argument("candidate", help="candidate snapshot from --bench-json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression before failing (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    failures, report = compare(
        load_snapshot(args.baseline), load_snapshot(args.candidate), args.tolerance
    )
    for line in report:
        print(line)
    if failures:
        print()
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"ratchet holds (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
