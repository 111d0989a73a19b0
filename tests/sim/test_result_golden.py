"""Golden results: every fact a run reports, recorded at the parent commit.

``result_digest`` covers the completion timeline and the
``VIRTUAL_CLOCK_PARITY_FIELDS``; it does not cover ``label``,
``policy_name``, ``store_backend``, ``page_reads``, ``steals``,
``wall_clock_s``, ``workers`` or ``backend``, nor the serving report, the
ledger, the snapshot or the Chrome trace.  This file pins all of them for
seven specs that between them take every path ``Simulator.execute`` has:
serial (plain, file-backed, served), virtual with stealing, process,
crash recovery, and a served sharded run.

Each spec reduces to six sha256 facts: the result digest, every non-wall
``SimulationResult`` field, the serving report, the ledger, the
virtual-domain snapshot and the exported trace bytes.  Wall-clock fields
(``real_elapsed_s``, ``real_read_s``, the reliability report's real
seconds) are left out.  Each spec runs once per module, and the same runs
also check the conservation laws the ledger implies.

``tests/fixtures/results/golden_results.json`` was recorded before the
serial and sharded paths of ``Simulator.execute`` were folded into one.
Its four sharded specs were re-recorded once, when a sharded query began
to complete at its last-finishing service instead of its last-starting
one (result digest, fields and trace moved; serving, ledger and snapshot
did not).
Re-record (only when the *intended* behaviour changes) with::

    PYTHONPATH=src python -m tests.sim.test_result_golden

which prints a moved/unchanged table of spec × fact against the committed
file before it overwrites it.
"""

import dataclasses
import hashlib
import json
import math
import os
import tempfile

import pytest

from repro.reliability import FaultPlan, ReliabilityConfig
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import VIRTUAL_CLOCK_PARITY_FIELDS, SimulationConfig, Simulator
from repro.storage.ingest import materialize_layout
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain, metric_value, snapshot_to_json
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.trace_io import run_digest
from tests.telemetry.helpers import ledger_digest, moved_table

GOLDEN_RESULTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "results", "golden_results.json"
)

BUCKETS = 64
ROWS_PER_BUCKET = 24
#: Steal/checkpoint window in bucket-read units (as the coordinator golden).
WINDOW_BUCKET_READS = 4.0

#: Result fields that measure the wall clock, or get a fact of their own.
_NOT_IN_FIELDS = ("real_elapsed_s", "real_read_s", "serving", "ledger", "telemetry")


def _spec_table(quantum_ms: float, store_path: str) -> dict:
    """The seven specs, by name."""
    return {
        "serial": RunSpec(),
        "serial_noshare_lrbs": RunSpec(policy="noshare", store_path=store_path),
        "serial_defer": RunSpec(service=ServiceConfig(admission="defer", intake_bound=12)),
        "virtual_x4_steal": RunSpec(
            workers=4, backend="virtual", steal_quantum_ms=quantum_ms
        ),
        "process_x2": RunSpec(workers=2, backend="process"),
        "virtual_x2_crash": RunSpec(
            workers=2,
            backend="virtual",
            enable_stealing=False,
            reliability=ReliabilityConfig(
                cadence="windows:2",
                faults=FaultPlan.parse("1@2"),
                window_quantum_ms=quantum_ms,
            ),
        ),
        "virtual_x2_reject": RunSpec(
            workers=2,
            backend="virtual",
            service=ServiceConfig(admission="reject", intake_bound=12),
        ),
    }


SPEC_NAMES = tuple(_spec_table(1.0, ""))


def _sha(value) -> str:
    """sha256 of a JSON-codable value (floats round-trip exactly)."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _reliability_facts(report):
    """The deterministic part of a reliability report (no real seconds)."""
    if report is None:
        return None
    return {
        "cadence": report.cadence,
        "windows": report.windows,
        "checkpoints_written": report.checkpoints_written,
        "crashes_injected": report.crashes_injected,
        "recoveries": [
            (e.worker_id, e.window_index, e.checkpoint_window, e.services_replayed)
            for e in report.recoveries
        ],
        "scale_events": [dataclasses.astuple(e) for e in report.scale_events],
    }


def _result_fields(result) -> dict:
    fields = {}
    for field in dataclasses.fields(result):
        if field.name in _NOT_IN_FIELDS:
            continue
        value = getattr(result, field.name)
        if field.name == "reliability":
            value = _reliability_facts(value)
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        fields[field.name] = value
    return fields


class _Site:
    """The simulator, trace and store every spec runs against."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.simulator = Simulator(SimulationConfig(bucket_count=BUCKETS))
        config = TraceConfig(query_count=60, bucket_count=BUCKETS, seed=21)
        self.queries = tuple(TraceGenerator(config).generate().with_saturation(1.0).queries)
        store = os.path.join(directory, "site.lrbs")
        self.store_path = materialize_layout(
            store, self.simulator.layout, rows_per_bucket=ROWS_PER_BUCKET
        ).path
        quantum_ms = self.simulator.config.cost.tb_ms * WINDOW_BUCKET_READS
        self.specs = _spec_table(quantum_ms, self.store_path)

        self._results: dict = {}

    def trace_path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.trace.json")

    def result(self, name: str):
        """Run one spec, once: every test of the module reads the same run."""
        if name not in self._results:
            spec = dataclasses.replace(self.specs[name], trace_out=self.trace_path(name))
            self._results[name] = self.simulator.execute(self.queries, spec)
        return self._results[name]

    def outcome(self, name: str) -> dict:
        """Run one spec and reduce it to its six facts."""
        result = self.result(name)
        with open(self.trace_path(name), "rb") as handle:
            trace_sha256 = hashlib.sha256(handle.read()).hexdigest()
        serving = result.serving
        return {
            "result_digest": result.result_digest,
            "fields_sha256": _sha(_result_fields(result)),
            "serving_sha256": _sha(
                dataclasses.asdict(serving) if serving is not None else None
            ),
            "ledger_sha256": ledger_digest(result.ledger),
            "snapshot_sha256": hashlib.sha256(
                snapshot_to_json(filter_domain(result.telemetry, VIRTUAL_DOMAIN)).encode()
            ).hexdigest(),
            "trace_sha256": trace_sha256,
        }


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    return _Site(str(tmp_path_factory.mktemp("result-golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_RESULTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_exactly_the_spec_table(golden):
    assert sorted(golden) == sorted(SPEC_NAMES)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_result_equals_the_parent_golden(site, golden, name):
    assert site.outcome(name) == golden[name]


def test_the_specs_exercise_the_paths_they_are_named_for(site):
    """Each spec really takes its path: a golden of a no-op pins nothing."""
    results = {name: site.result(name) for name in SPEC_NAMES}
    assert results["serial"].backend == "serial"
    assert results["serial_noshare_lrbs"].store_backend == "file"
    assert results["serial_noshare_lrbs"].page_reads > 0
    assert results["serial_defer"].serving.deferrals > 0
    assert results["virtual_x4_steal"].steals > 0
    assert results["process_x2"].backend == "process"
    assert results["virtual_x2_crash"].reliability.recovery_count == 1
    assert results["virtual_x2_reject"].serving.rejected > 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recording_site = _Site(scratch)
        recorded = {name: recording_site.outcome(name) for name in SPEC_NAMES}
    committed = {}
    if os.path.exists(GOLDEN_RESULTS):
        with open(GOLDEN_RESULTS, encoding="utf-8") as handle:
            committed = json.load(handle)
    print(moved_table(committed, recorded))
    os.makedirs(os.path.dirname(GOLDEN_RESULTS), exist_ok=True)
    with open(GOLDEN_RESULTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, facts in recorded.items():
        print(f"{name}: {facts['result_digest'][:16]}")


class TestLedgerConservationLaws:
    """What a run's ledger implies about the run, checked on every golden spec.

    Each law holds exactly or to float summation order: a violation is a
    bug in the run or the ledger, never a tolerance to widen.
    """

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_every_completed_query_has_one_entry(self, site, name):
        result = site.result(name)
        assert len(result.ledger["queries"]) == result.completed_queries

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_each_service_is_a_cache_hit_or_an_io(self, site, name):
        for entry in site.result(name).ledger["queries"]:
            assert entry["cache_hit_services"] + entry["io_services"] == entry["services"]

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_attributed_costs_sum_to_the_run_totals(self, site, name):
        """Sharing splits each service among its queries and loses nothing."""
        result = site.result(name)
        entries = result.ledger["queries"]
        assert math.isclose(
            math.fsum(entry["attributed_service_ms"] for entry in entries),
            result.busy_time_s * 1000.0,
            rel_tol=1e-12,
        )
        assert math.isclose(
            math.fsum(entry["attributed_io_ms"] for entry in entries),
            result.total_io_s * 1000.0,
            rel_tol=1e-12,
        )

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_strategy_counts_sum_to_the_services(self, site, name):
        result = site.result(name)
        assert sum(result.strategy_counts.values()) == result.bucket_services

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_the_report_reads_the_snapshot_counters(self, site, name):
        """Every lane total the result reports is the virtual snapshot's counter, bit for bit."""
        result = site.result(name)
        snapshot = filter_domain(result.telemetry, VIRTUAL_DOMAIN)

        def counter(metric, **labels):
            return metric_value(snapshot, metric, labels)

        hits, misses = counter("cache.hits"), counter("cache.misses")
        assert result.bucket_services == counter("engine.services")
        assert result.busy_time_s == counter("engine.busy_ms") / 1000.0
        assert result.total_io_s == counter("engine.io_ms") / 1000.0
        assert result.total_match_s == counter("engine.match_ms") / 1000.0
        assert result.cache_hit_rate == (hits / (hits + misses) if hits + misses else 0.0)
        assert result.strategy_counts == {
            strategy: counter("engine.strategy_services", strategy=strategy)
            for strategy in result.strategy_counts
        }

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_a_query_completes_at_its_last_service(self, site, name):
        """Completion = engine arrival + that query's response time, bit for bit.

        The engine's clock starts at hand-off: the client arrival, or for a
        served run the admit instant, which reaches the engine as a query's
        ``arrival_time_s`` (so in seconds, then back to milliseconds).  The
        per-query response times are checked through the result digest,
        which covers each of them exactly.
        """
        result = site.result(name)
        response_times_ms = {
            entry["query_id"]: entry["completion_ms"] - (entry["submit_ms"] / 1000.0) * 1000.0
            for entry in result.ledger["queries"]
        }
        parity = [float(getattr(result, field)) for field in VIRTUAL_CLOCK_PARITY_FIELDS]
        assert run_digest(response_times_ms, parity) == result.result_digest
