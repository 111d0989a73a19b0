"""The repo benchmark's command line.

::

    python3 benchmarks/e2e/run.py --workload sched_deep --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --trace 1 --out results.json      # all seven workloads
    python3 benchmarks/e2e/run.py --runs 10 --out set_a.json        # ten seeds per workload
    python3 benchmarks/e2e/run.py compare set_a.json set_b.json

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same program.)  Every
metric is printed by name with its unit; for a single run the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.
The exit status is non-zero when any parity/digest check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Run as a script, only this directory is importable: add the checkout
# (for ``benchmarks.e2e``) and ``src`` (for ``repro``).  Worker processes
# spawned by the process backend inherit ``sys.path`` from this process.
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.compare import compare_files  # noqa: E402
from benchmarks.e2e.harness import (  # noqa: E402
    DEFAULT_PASS_TIMEOUT_S,
    Measurement,
    environment,
    measure,
    work_directory,
)
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: The default seed; 1841 is the held-out seed.
DEFAULT_SEED = 8675309


def _print_measurement(measurement: Measurement) -> None:
    record = measurement.to_json()
    print(
        f"== {record['workload']}  seed={record['seed']}  passes={record['pass_count']}  "
        f"setup_rounds={record['setup_rounds']}  correct={record['correct']}  "
        f"attempted={record['attempted']}  failed={record['failed']}"
    )
    for name, stats in record["end_to_end"].items():
        print(
            f"  {name:<44} {stats['value']:>14.6g} {stats['unit']:<6} "
            f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} min={stats['min']:.6g} "
            f"max={stats['max']:.6g} n={stats['n']}"
        )
    for name, value in record["exact"].items():
        print(f"  exact.{name:<38} {value}")
    for name, entry in (record["per_layer"] or {}).items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    for check in record["checks"]:
        print(f"  check ok: {check}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        lines, any_worse = compare_files(argv[1], argv[2])
        print("\n".join(lines))
        return 1 if any_worse else 0

    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring window per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: add the traced pass and layers"
    )
    parser.add_argument("--runs", type=int, default=1, help="runs per workload; run i uses seed+i")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass (schema test)")
    parser.add_argument("--out", help="write every run's full record to this JSON file")
    parser.add_argument("--spans-out", help="write the last traced run's spans (Chrome trace)")
    parser.add_argument("--pass-timeout", type=float, default=DEFAULT_PASS_TIMEOUT_S)
    args = parser.parse_args(argv)
    # Terminated from outside, still unwind: the ``finally`` blocks stop the
    # worker processes and remove the temp stores.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    jobs = [(name, args.seed + i) for name in args.workload or WORKLOADS for i in range(args.runs)]
    trace = bool(args.trace)
    if len(jobs) == 1:
        name, seed = jobs[0]
        measurement = measure(
            name,
            seed,
            0.0 if args.smoke else args.seconds,
            trace=trace,
            smoke=args.smoke,
            pass_timeout_s=args.pass_timeout,
        )
        _print_measurement(measurement)
        records = [dict(measurement.to_json(), environment=environment())]
        if args.spans_out and measurement.spans is not None:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(measurement.spans, handle)
        final = measurement.driver_line(trace)
    else:
        records = _run_each_in_its_own_process(jobs, args)
        # Several runs: the metrics are in the tables above and in --out.
        final = {
            "correct": all(record["correct"] for record in records),
            "attempted": max(1, sum(record["attempted"] for record in records)),
            "failed": sum(record["failed"] for record in records),
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1)
            handle.write("\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _run_each_in_its_own_process(jobs, args) -> list:
    """One fresh interpreter per (workload, seed), as the driver runs them.

    ``peak_rss_mb`` is a high-water mark of the process, so two
    measurements may not share one.  Each child prints its own tables.
    """
    shared = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    shared += ["--pass-timeout", str(args.pass_timeout)]
    if args.smoke:
        shared.append("--smoke")
    if args.spans_out:
        shared += ["--spans-out", args.spans_out]
    records = []
    with work_directory("runs") as scratch:
        part = os.path.join(scratch, "run.json")
        for name, seed in jobs:
            child = [sys.executable, os.path.abspath(__file__), "--workload", name]
            subprocess.run(child + ["--seed", str(seed), "--out", part] + shared, check=False)
            with open(part, encoding="utf-8") as handle:
                records.extend(json.load(handle))
            os.remove(part)  # a child that dies must not leave the last one's record
    return records


if __name__ == "__main__":
    # The guard matters: the process backend starts workers with ``spawn``,
    # which re-imports this file in every child.
    sys.exit(main())
