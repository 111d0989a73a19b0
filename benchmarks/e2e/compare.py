"""``compare A.json B.json``: grade two sets of runs by the benchmark's bounds.

Each file is an ``--out`` file: a list of run records, any number of runs
per workload (``--runs N`` writes N, one seed each).  For every workload ×
end-to-end metric the tool prints both sides' median with quartiles over
their runs, the ratio B ÷ A, and a verdict by the bound in
``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but a side's run-to-run spread (quartile
  distance ÷ median) is wider than the bound, so "unchanged" cannot be
  claimed — unless every run of B reads better than every run of A;
* ``ok`` otherwise.

Virtual-domain facts (digest, virtual throughput, response time …) must be
bit-equal for every seed both files measured; a difference is ``worse``.
Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def load_bounds(path: str = BENCHMARK_JSON) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: (entry["better"], entry["bound"]) for entry in spec["end_to_end"]}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def grade(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Verdict and ratio (B median ÷ A median) for one workload × metric."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    ratio = b_median / a_median
    worsening = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    if worsening > bound:
        return "worse", ratio
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        clear_win = min(b) > max(a) if better == "higher" else max(b) < min(a)
        if not clear_win:
            return "unresolved", ratio
    return "ok", ratio


def _by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare_files(path_a: str, path_b: str) -> Tuple[List[str], bool]:
    """Report lines and whether any row graded ``worse``."""
    with open(path_a, encoding="utf-8") as handle:
        runs_a = _by_workload(json.load(handle))
    with open(path_b, encoding="utf-8") as handle:
        runs_b = _by_workload(json.load(handle))
    bounds = load_bounds()
    lines = [
        f"A = {path_a}  B = {path_b}  (ratio = B median / A median)",
        f"{'workload':<18} {'metric':<12} {'A median [q1, q3] n':<38} "
        f"{'B median [q1, q3] n':<38} {'ratio':>7} {'bound':>6}  verdict",
    ]
    any_worse = False
    for workload in sorted(set(runs_a) & set(runs_b)):
        for metric, (better, bound) in bounds.items():
            a = [run["end_to_end"][metric]["value"] for run in runs_a[workload]]
            b = [run["end_to_end"][metric]["value"] for run in runs_b[workload]]
            verdict, ratio = grade(a, b, better, bound)
            any_worse |= verdict == "worse"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            lines.append(
                f"{workload:<18} {metric:<12} {cells[0]:<38} {cells[1]:<38} "
                f"{ratio:>7.3f} {bound:>6.2f}  {verdict}"
            )
        exact_a = {run["seed"]: run["exact"] for run in runs_a[workload]}
        exact_b = {run["seed"]: run["exact"] for run in runs_b[workload]}
        shared = sorted(set(exact_a) & set(exact_b))
        drift = [seed for seed in shared if exact_a[seed] != exact_b[seed]]
        any_worse |= bool(drift)
        verdict = f"worse (seeds {drift})" if drift else "ok"
        lines.append(
            f"{workload:<18} {'exact':<12} virtual-domain facts over {len(shared)} shared "
            f"seed(s): {verdict}"
        )
    for workload in sorted(set(runs_a) ^ set(runs_b)):
        lines.append(f"{workload:<18} only in one file - not compared")
    return lines, any_worse
