"""The per-query cost ledger: schema, attribution and the parity matrix.

The ledger is the PR's determinism-critical artifact: assembled from
batch records after a run, it must be bit-identical across the serial
engine and both execution backends at any fixed worker count (stealing
off), identical between a crash-injected recovery run and its clean
twin, and building it must never perturb the ``result_digest``.  Unit
tests drive :func:`build_run_ledger` with lightweight record stand-ins
(the same dual-shape rule as the span builder); the parity matrix runs
the real engines end to end.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.telemetry.ledger import (
    LEDGER_VERSION,
    build_run_ledger,
    diff_ledgers,
    ledger_entries,
)
from repro.workload.generator import TraceConfig, TraceGenerator
from tests.telemetry.helpers import ledger_digest

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)
WINDOW_BUCKET_READS = 4.0


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(bucket_count=BUCKETS)


@pytest.fixture(scope="module")
def simulator(sim_config):
    return Simulator(sim_config)


@pytest.fixture(scope="module")
def timed_queries():
    config = TraceConfig(query_count=40, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(3.0).queries)


@pytest.fixture(scope="module")
def serial_result(simulator, timed_queries):
    return simulator.execute(timed_queries, RunSpec())


@pytest.fixture(scope="module")
def backend_results(simulator, timed_queries):
    results = {}
    for backend in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            spec = RunSpec(backend=backend, workers=workers, enable_stealing=False)
            results[(backend, workers)] = simulator.execute(timed_queries, spec)
    return results


def service(
    bucket=3,
    start=0.0,
    finish=10.0,
    io_ms=6.0,
    match_ms=4.0,
    queries=(1,),
    objects=(5,),
):
    """A parallel-record-shaped stand-in (io/match carried directly)."""
    return SimpleNamespace(
        bucket_index=bucket,
        started_at_ms=start,
        finished_at_ms=finish,
        io_ms=io_ms,
        match_ms=match_ms,
        queries_served=tuple(queries),
        objects_served=tuple(objects),
    )


def instant(time_ms, query_id, outcome, attempt=0):
    return SimpleNamespace(
        time_ms=time_ms, query_id=query_id, outcome=outcome, attempt=attempt
    )


class TestLedgerSchema:
    def test_single_service_decomposition(self):
        ledger = build_run_ledger(
            [service(start=4.0, finish=10.0, io_ms=6.0, match_ms=0.0)],
            arrivals_ms={1: 1.0},
        )
        assert ledger["version"] == LEDGER_VERSION
        (entry,) = ledger["queries"]
        assert entry["query_id"] == 1
        assert entry["arrival_ms"] == 1.0
        # No gate: hand-off is the arrival, queue wait runs to the first
        # service start.
        assert entry["submit_ms"] == 1.0
        assert entry["admission_wait_ms"] == 0.0
        assert entry["queue_wait_ms"] == 3.0
        assert entry["makespan_ms"] == 9.0
        assert entry["service_ms"] == 6.0
        assert entry["io_ms"] == 6.0
        assert entry["io_services"] == 1 and entry["cache_hit_services"] == 0
        assert entry["buckets"] == [
            {"bucket": 3, "shared_by": 1, "service_ms": 6.0, "io_ms": 6.0, "objects": 5}
        ]

    def test_sharing_attribution_splits_costs(self):
        batch = service(
            start=0.0, finish=12.0, io_ms=9.0, match_ms=3.0, queries=(1, 2, 3), objects=(4, 5, 6)
        )
        ledger = build_run_ledger([batch], arrivals_ms={1: 0.0, 2: 0.0, 3: 0.0})
        entries = ledger_entries(ledger)
        for query_id in (1, 2, 3):
            entry = entries[query_id]
            assert entry["service_ms"] == 12.0
            assert entry["attributed_service_ms"] == pytest.approx(4.0)
            assert entry["attributed_io_ms"] == pytest.approx(3.0)
            assert entry["buckets"][0]["shared_by"] == 3
        assert entries[2]["buckets"][0]["objects"] == 5

    def test_cache_hit_vs_io_split(self):
        ledger = build_run_ledger(
            [
                service(bucket=1, start=0.0, finish=5.0, io_ms=3.0, match_ms=2.0),
                service(bucket=1, start=5.0, finish=7.0, io_ms=0.0, match_ms=2.0),
            ],
            arrivals_ms={1: 0.0},
        )
        (entry,) = ledger["queries"]
        assert entry["services"] == 2
        assert entry["io_services"] == 1
        assert entry["cache_hit_services"] == 1

    def test_admission_story_from_gate_instants(self):
        records = [
            instant(0.0, 7, "defer", attempt=0),
            instant(5.0, 7, "defer", attempt=1),
            instant(10.0, 7, "admit", attempt=2),
        ]
        ledger = build_run_ledger(
            [service(start=14.0, finish=20.0, queries=(7,), objects=(1,))],
            admission_records=records,
        )
        (entry,) = ledger["queries"]
        # Arrival falls back to the first gate instant; submit is the
        # admit instant; the defer rounds are the admission wait.
        assert entry["arrival_ms"] == 0.0
        assert entry["submit_ms"] == 10.0
        assert entry["admission_wait_ms"] == 10.0
        assert entry["defers"] == 2
        assert entry["queue_wait_ms"] == 4.0
        assert entry["makespan_ms"] == 20.0

    def test_steal_migration_wait_attribution(self):
        steal = SimpleNamespace(bucket_index=3, time_ms=6.0, victim_id=0, thief_id=1, entry_count=2)
        ledger = build_run_ledger(
            [service(bucket=3, start=9.0, finish=12.0)],
            steal_records=[steal],
            arrivals_ms={1: 2.0},
        )
        (entry,) = ledger["queries"]
        assert entry["steal_migrations"] == 1
        assert entry["steal_wait_ms"] == pytest.approx(3.0)
        # A steal before the query arrived attributes nothing.
        early = build_run_ledger(
            [service(bucket=3, start=9.0, finish=12.0)],
            steal_records=[SimpleNamespace(bucket_index=3, time_ms=1.0)],
            arrivals_ms={1: 2.0},
        )
        assert early["queries"][0]["steal_migrations"] == 0

    def test_serial_batch_results_normalise_via_join(self):
        batch = SimpleNamespace(
            work_item=SimpleNamespace(bucket_index=9),
            join=SimpleNamespace(io_cost_ms=2.0, match_cost_ms=1.0),
            started_at_ms=0.0,
            finished_at_ms=3.0,
            queries_served=(4,),
            objects_served=(8,),
        )
        (entry,) = build_run_ledger([batch])["queries"]
        assert entry["io_ms"] == 2.0 and entry["match_ms"] == 1.0
        assert entry["buckets"][0]["bucket"] == 9

    def test_ledger_json_round_trips(self):
        ledger = build_run_ledger(
            [service(queries=(1, 2), objects=(3, 4))], arrivals_ms={1: 0.0, 2: 0.0}
        )
        assert json.loads(json.dumps(ledger)) == ledger
        assert ledger_digest(json.loads(json.dumps(ledger))) == ledger_digest(ledger)


class TestDiffLedgers:
    def test_identical_ledgers_diff_clean(self):
        ledger = build_run_ledger([service()], arrivals_ms={1: 0.0})
        assert diff_ledgers(ledger, json.loads(json.dumps(ledger))) == []

    def test_changed_field_is_reported(self):
        a = build_run_ledger([service(finish=10.0)], arrivals_ms={1: 0.0})
        b = build_run_ledger([service(finish=12.0)], arrivals_ms={1: 0.0})
        (row,) = [r for r in diff_ledgers(a, b) if r[0] == "query 1"]
        assert row[1] == "changed"
        assert "makespan_ms" in row[2]

    def test_only_one_side(self):
        a = build_run_ledger([service(queries=(1,), objects=(2,))], arrivals_ms={1: 0.0})
        b = build_run_ledger([service(queries=(2,), objects=(2,))], arrivals_ms={2: 0.0})
        statuses = {key: status for key, status, _ in diff_ledgers(a, b)}
        assert statuses == {"query 1": "only-a", "query 2": "only-b"}


services_strategy = st.lists(
    st.builds(
        service,
        bucket=st.integers(min_value=0, max_value=7),
        start=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        io_ms=st.sampled_from([0.0, 3.0]),
        queries=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=3, unique=True
        ).map(tuple),
    ).map(
        lambda s: service(
            bucket=s.bucket_index,
            start=s.started_at_ms,
            finish=s.started_at_ms + 5.0,
            io_ms=s.io_ms,
            match_ms=2.0,
            queries=s.queries_served,
            objects=tuple(range(1, len(s.queries_served) + 1)),
        )
    ),
    min_size=0,
    max_size=12,
)


class TestMergeCommutativity:
    @settings(max_examples=60)
    @given(records=services_strategy, seed=st.integers(min_value=0, max_value=2**16))
    def test_ledger_is_order_insensitive(self, records, seed):
        import random

        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        baseline = build_run_ledger(records)
        assert build_run_ledger(shuffled) == baseline
        assert ledger_digest(build_run_ledger(shuffled)) == ledger_digest(baseline)

    @settings(max_examples=60)
    @given(records=services_strategy, cut=st.integers(min_value=0, max_value=12))
    def test_fragment_concatenation_commutes(self, records, cut):
        """Per-worker fragments merge by concatenation in either order."""
        split = min(cut, len(records))
        left, right = records[:split], records[split:]
        assert build_run_ledger(left + right) == build_run_ledger(right + left)


class TestLedgerParityMatrix:
    def test_serial_matches_single_worker_backends(self, serial_result, backend_results):
        want = ledger_digest(serial_result.ledger)
        assert ledger_digest(backend_results[("virtual", 1)].ledger) == want
        assert ledger_digest(backend_results[("process", 1)].ledger) == want

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_virtual_matches_process(self, backend_results, workers):
        virtual = backend_results[("virtual", workers)].ledger
        process = backend_results[("process", workers)].ledger
        assert ledger_digest(virtual) == ledger_digest(process)
        assert virtual == process

    def test_every_completed_query_has_an_entry(self, serial_result):
        entries = ledger_entries(serial_result.ledger)
        assert len(entries) == serial_result.completed_queries
        for entry in entries.values():
            assert entry["makespan_ms"] >= 0.0
            assert entry["attributed_service_ms"] <= entry["service_ms"] + 1e-9
            assert entry["services"] == len(entry["buckets"])
            # Stealing is off everywhere in this matrix.
            assert entry["steal_migrations"] == 0


class TestCrashRecoveryParity:
    @pytest.fixture(scope="class")
    def reliability_pair(self, simulator, timed_queries, sim_config):
        quantum_ms = sim_config.cost.tb_ms * WINDOW_BUCKET_READS

        def run(faults):
            return simulator.execute(
                timed_queries,
                RunSpec(
                    workers=2,
                    enable_stealing=False,
                    reliability=ReliabilityConfig(
                        cadence="windows:1",
                        faults=faults,
                        window_quantum_ms=quantum_ms,
                    ),
                ),
            )

        return run(None), run(FaultPlan.parse("1@1"))

    def test_crash_ledger_matches_clean(self, reliability_pair):
        clean, crashed = reliability_pair
        assert crashed.reliability.crashes_injected >= 1
        assert crashed.result_digest == clean.result_digest
        assert ledger_digest(crashed.ledger) == ledger_digest(clean.ledger)
        assert crashed.ledger == clean.ledger


class TestZeroPerturbation:
    def test_digest_unchanged_with_ledger_off(self, simulator, timed_queries, serial_result):
        off = simulator.execute(timed_queries, RunSpec(telemetry=False))
        assert off.ledger is None
        assert serial_result.ledger is not None
        assert off.result_digest == serial_result.result_digest

    def test_digest_unchanged_with_archive_on(
        self, simulator, timed_queries, serial_result, tmp_path
    ):
        archived = simulator.execute(
            timed_queries, RunSpec(archive_out=str(tmp_path / "run.lrrun"))
        )
        assert archived.result_digest == serial_result.result_digest
        assert (tmp_path / "run.lrrun").exists()

    def test_archive_written_even_with_telemetry_off(
        self, simulator, timed_queries, serial_result, tmp_path
    ):
        path = tmp_path / "off.lrrun"
        off = simulator.execute(
            timed_queries, RunSpec(telemetry=False, archive_out=str(path))
        )
        assert off.ledger is None
        assert off.result_digest == serial_result.result_digest
        assert path.exists()
