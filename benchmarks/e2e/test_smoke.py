"""Tier-1 schema test of the repo benchmark (``benchmarks/e2e``).

Runs all seven workloads twice in ``--smoke`` shape (one pass, <= 300
queries, one crash, 64-bucket store) and checks what the benchmark
contract needs: every metric reported by name with a unit, names and
units inside the contract's alphabet, virtual-domain metrics repeating
exactly, and ``BENCHMARK.json`` agreeing with the code.  Timing values
themselves are never asserted — this box's wall clock is too noisy for
tier-1.
"""

import json
import multiprocessing
import os
import re
import time
from multiprocessing import resource_tracker

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.compare import BENCHMARK_JSON, compare_files, grade
from benchmarks.e2e.layers import EXACT_LAYER_METRICS, HIGHER_IS_BETTER, LAYER_UNITS
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: The held-out seed: smoke sizes were never tuned on it.
SEED = 1841


@pytest.fixture(scope="module")
def smoke_sets():
    """Two independent smoke runs of every workload, traced."""
    return [
        {name: harness.measure(name, SEED, 0.0, trace=True, smoke=True) for name in WORKLOADS}
        for _ in range(2)
    ]


def test_every_workload_is_correct_and_reports_every_metric(smoke_sets):
    assert len(WORKLOADS) == 7
    for name, measurement in smoke_sets[0].items():
        record = measurement.to_json()
        assert record["correct"], record["failures"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert set(record["end_to_end"]) == set(harness.E2E_UNITS), name
        for metric, stats in record["end_to_end"].items():
            assert stats["unit"] == harness.E2E_UNITS[metric]
            assert stats["value"] > 0, (name, metric)
        assert list(record["per_layer"]) == list(LAYER_UNITS), name
        line = measurement.driver_line(trace=True)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(LAYER_UNITS)
        assert set(measurement.driver_line(trace=False)["metrics"]) == set(harness.E2E_UNITS)


def test_parity_references_were_checked(smoke_sets):
    checks = {name: m.gate.checks for name, m in smoke_sets[0].items()}
    assert "shards_process == virtual backend x2" in checks["shards_process"]
    assert "recovery_crash == clean process run x2" in checks["recovery_crash"]
    assert "noshare_file_cold == in-memory store" in checks["noshare_file_cold"]
    for name, workload in WORKLOADS.items():
        if workload.serial:
            assert "traced pass 1 == untraced" in checks[name]
    # The crash really happened and was recovered from.
    assert smoke_sets[0]["recovery_crash"].per_layer["reliability.recoveries"] == 1
    assert smoke_sets[0]["serve_flash_crowd"].per_layer["service.rejected_share"] > 0


def test_no_process_outlives_a_run(smoke_sets):
    # The fixture ran both process-backend workloads: their workers are
    # reaped and multiprocessing's resource tracker was stopped and waited for.
    assert multiprocessing.active_children() == []
    assert getattr(resource_tracker._resource_tracker, "_pid", None) is None


def test_names_and_units_fit_the_contract():
    assert 1 <= len(LAYER_UNITS) <= 128
    for name, unit in {**harness.E2E_UNITS, **LAYER_UNITS}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert not set(harness.E2E_UNITS) & set(LAYER_UNITS)
    assert EXACT_LAYER_METRICS <= set(LAYER_UNITS)
    assert HIGHER_IS_BETTER <= set(LAYER_UNITS)
    for name, workload in WORKLOADS.items():
        assert NAME.match(name)
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_exact_metrics_repeat_across_runs(smoke_sets):
    first, second = smoke_sets
    for name in WORKLOADS:
        assert first[name].exact == second[name].exact, name
        for metric in EXACT_LAYER_METRICS:
            assert first[name].per_layer[metric] == second[name].per_layer[metric], (name, metric)


def test_benchmark_json_agrees_with_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_UNITS.items())
    for metric in spec["per_layer"]:
        expected = "higher" if metric["name"] in HIGHER_IS_BETTER else "lower"
        assert metric["better"] == expected, metric["name"]


def test_compare_grades_by_the_bounds(tmp_path, smoke_sets):
    steady = [100.0, 101.0, 99.0, 100.5]
    assert grade(steady, steady, "higher", 0.1)[0] == "ok"
    assert grade(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.1)[0] == "worse"
    assert grade(steady, [120.0, 121.0, 119.0, 120.5], "lower", 0.1)[0] == "worse"
    noisy = [70.0, 130.0, 100.0, 85.0, 115.0]
    assert grade(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    # Every run of B better than every run of A resolves a wide spread.
    assert grade(noisy, [v + 100.0 for v in noisy], "higher", 0.1)[0] == "ok"

    records = [m.to_json() for m in smoke_sets[0].values()]
    same = tmp_path / "a.json"
    same.write_text(json.dumps(records))
    drifted = json.loads(same.read_text())
    drifted[0]["exact"]["result_digest"] = "0" * 64
    other = tmp_path / "b.json"
    other.write_text(json.dumps(drifted))
    lines, any_worse = compare_files(str(same), str(same))
    assert not any_worse and any("wall_qps" in line for line in lines)
    _, any_worse = compare_files(str(same), str(other))
    assert any_worse  # a virtual-domain digest moved


def test_a_wedged_pass_times_out_and_work_files_are_removed():
    started = time.perf_counter()
    with pytest.raises(harness.PassTimeout):
        with harness.wall_limit(0.05):
            time.sleep(5.0)
    assert time.perf_counter() - started < 2.0
    assert not os.path.exists(harness.WORK_ROOT)
