"""Golden outcomes of the message-passing coordinator, stealing included.

The parity suites pin the process backend against the virtual backend
cell by cell; this file pins the numbers themselves.  The constants
below were recorded at the commit *before* the process backend's private
run loop was folded into the channel coordinator, so they prove that
refactor moved no virtual-clock number — digests, steal schedule, window
boundaries and the virtual-domain telemetry all included.

It also states the property one shared loop gives by construction: the
plain virtual backend (the same coordinator over inline channels) is
bit-identical, steals included, to the plain process backend.

Each cell runs through ``Simulator.execute``; the
``coordinator_outcomes`` fixture (``tests/conftest.py``) keeps the raw
coordinator outcome beside the simulator result.

The constants are re-recorded by hand, and only for an intended change::

    PYTHONPATH=src python -m tests.parallel.test_coordinator_golden

runs every cell (over inline channels) and prints a moved/unchanged table
of cell × fact, then the facts of every cell that moved.
"""

import hashlib

import pytest

from repro.reliability import FaultPlan, ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.ingest import materialize_layout
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain, snapshot_to_json
from repro.workload.generator import TraceConfig, TraceGenerator
from tests.conftest import record_outcomes
from tests.telemetry.helpers import ledger_digest, moved_table

BUCKETS = 64
ROWS_PER_BUCKET = 24
#: Steal/checkpoint window in bucket-read units: fine enough that the
#: small trace spans a dozen barriers and idle shards really steal.
WINDOW_BUCKET_READS = 4.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Recorded at the parent commit (see the module docstring); keyed by
# (workers, stealing).  Memory and `.lrbs` runs share one entry: the
# storage tier is not observable on the virtual clock.  The result digests
# of (2, True), (4, True) and (4, False) were re-recorded once, when a
# sharded query began to complete at its last-finishing service instead of
# its last-starting one; every other fact here is unchanged.
GOLDEN = {
    (2, True): {
        "result_digest": "66b67d90ec138160efac9ee01b02da8119bde6fef77df1940b4d55bb4095ede8",
        "ledger_digest": "c57a4abaaa8be4c09d7e6a42823a0260dae8b38d3b7ed80c39b928bd18f43a86",
        # (time_ms, bucket, victim, thief, entries)
        "steals": (
            (30525.23222153609, 1, 0, 1, 2),
            (34909.03430911307, 17, 0, 1, 1),
            (43976.64673857267, 48, 1, 0, 1),
            (54447.217638289185, 55, 1, 0, 2),
            (58576.0145107215, 7, 0, 1, 1),
        ),
        "window_boundaries_ms": (
            4980.263052767751,
            9884.462221536087,
            14880.913052767748,
            20699.202221536085,
            26434.19305276775,
            31355.67305276775,
            35325.23222153609,
            39709.03430911307,
            44861.41484203737,
            48776.64673857267,
            54395.57673857266,
            59247.217638289185,
            63376.0145107215,
            68643.36176487495,
        ),
        "telemetry": "3299ea991fbf9455",
    },
    (2, False): {
        "result_digest": "202d2479a9d7940d834e8a19bf3187c1363f0fd96853d56c120cb17f4e8f8e32",
        "ledger_digest": "d98b8a05096f1feaffc0f56a0869c75244903b623873875b497ba0514ccebe9e",
        "steals": (),
        "window_boundaries_ms": (),
        "telemetry": "ed7693990fdde562",
    },
    (4, True): {
        "result_digest": "196a13393be3168906372e4708067d065cb4e2f16ec2b1e62091d54eff6c5542",
        "ledger_digest": "647f460acedbf9b182d6796f2f8277e6139034fa3975db41231e8cfca27221f8",
        "steals": (
            (3254.1148816860687, 17, 1, 2, 3),
            (7898.6258340745635, 56, 3, 2, 3),
            (11653.727978637846, 60, 3, 2, 5),
            (11937.546502845937, 52, 3, 1, 2),
            (13187.177978637847, 53, 3, 2, 2),
            (15712.660322001793, 63, 3, 0, 2),
            (19096.288537646837, 1, 0, 2, 1),
            (22566.417661458006, 7, 0, 3, 3),
            (27041.34178831278, 55, 3, 1, 1),
            (36249.39309616165, 24, 1, 3, 1),
            (43976.64673857267, 48, 3, 0, 1),
            (48998.87810512581, 16, 1, 0, 1),
            (54321.60478623956, 55, 1, 3, 2),
            (58088.616171819885, 59, 3, 1, 1),
        ),
        "window_boundaries_ms": (
            4980.263052767751,
            8054.114881686069,
            12698.625834074563,
            16453.727978637846,
            16737.546502845937,
            17987.177978637847,
            20512.660322001793,
            23896.288537646837,
            27366.417661458006,
            31841.34178831278,
            36909.63913616333,
            41049.39309616165,
            46532.65285703137,
            48776.64673857267,
            53798.87810512581,
            59121.60478623956,
            62888.616171819885,
            68643.36176487495,
        ),
        "telemetry": "6d6395be76bf8f71",
    },
    (4, False): {
        "result_digest": "2dfa9b2ea6ca16dd1fc1ae4810c3fe06184a43d895e45903c18e7fbc484e899c",
        "ledger_digest": "5064a792a06fdfa7c17583e9ee6e7eeaf711f3298f714008a2659812aa728eba",
        "steals": (),
        "window_boundaries_ms": (),
        "telemetry": "7d7559a0b6918eda",
    },
}

#: process x2, stealing off, checkpoints every 2 windows; shard 1 is
#: SIGKILLed at window 3 (right behind its checkpoint: nothing to replay)
#: and shard 0 at window 4 (one window of lost work).  Every digest is
#: the uninterrupted run's.
CRASHES = "1@3,0@4"
GOLDEN_CRASH = {
    **GOLDEN[(2, False)],
    "window_boundaries_ms": (
        4980.263052767751,
        9884.462221536087,
        14880.913052767748,
        20699.202221536085,
        26434.19305276775,
        31355.67305276775,
        36306.09937096329,
        41317.09755071683,
        46277.543096161644,
        51166.666738572676,
        56086.45763828918,
        61306.937792730925,
        68643.36176487495,
    ),
    "windows": 13,
    # Six checkpoint rounds of two shard files each.
    "checkpoints_written": 12,
    # (worker, window, checkpoint window, services replayed)
    "recoveries": ((1, 3, 2, 0), (0, 4, 2, 8)),
}


def golden_simulator():
    return Simulator(SimulationConfig(bucket_count=BUCKETS))


def golden_queries():
    config = TraceConfig(query_count=60, bucket_count=BUCKETS, seed=21)
    return tuple(TraceGenerator(config).generate().with_saturation(1.0).queries)


@pytest.fixture(scope="module")
def simulator():
    return golden_simulator()


@pytest.fixture(scope="module")
def quantum_ms(simulator):
    return simulator.config.cost.tb_ms * WINDOW_BUCKET_READS


@pytest.fixture(scope="module")
def store_path(simulator, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "site.lrbs"
    return materialize_layout(path, simulator.layout, rows_per_bucket=ROWS_PER_BUCKET).path


@pytest.fixture(scope="module")
def queries():
    return golden_queries()


def observe(simulator, queries, outcomes, backend, shard_strategy="zone", **spec_fields):
    """Run one cell on *backend* and reduce it to the pinned facts; its raw
    outcome is appended to *outcomes* (see :func:`tests.conftest.record_outcomes`)."""
    result = simulator.execute(
        queries, RunSpec(backend=backend, shard_strategy=shard_strategy, **spec_fields)
    )
    outcome = outcomes[-1]
    return {
        "result_digest": result.result_digest,
        "ledger_digest": ledger_digest(result.ledger),
        "steals": tuple(
            (s.time_ms, s.bucket_index, s.victim_id, s.thief_id, s.entry_count)
            for s in outcome.steal_records
        ),
        "window_boundaries_ms": tuple(outcome.window_boundaries_ms),
        "telemetry": _sha(snapshot_to_json(filter_domain(result.telemetry, VIRTUAL_DOMAIN))),
    }


@pytest.mark.parametrize("file_backed", (False, True), ids=("memory", "lrbs"))
@pytest.mark.parametrize("stealing", (True, False), ids=("steal", "nosteal"))
@pytest.mark.parametrize("workers", (2, 4))
def test_process_backend_matches_parent_commit(
    simulator, queries, quantum_ms, store_path, coordinator_outcomes, workers, stealing, file_backed
):
    cell = observe(
        simulator,
        queries,
        coordinator_outcomes,
        "process",
        workers=workers,
        enable_stealing=stealing,
        steal_quantum_ms=quantum_ms,
        store_path=store_path if file_backed else None,
    )
    assert cell == GOLDEN[(workers, stealing)]
    if stealing:
        assert cell["steals"], "the golden trace must really exercise stealing"
    else:
        # The single-drain path: one RunWindow(None) per shard, no barriers.
        assert cell["window_boundaries_ms"] == ()


def observe_crash(simulator, queries, quantum_ms, outcomes, backend):
    """Run the ``CRASHES`` cell (x2) and reduce it like ``GOLDEN_CRASH``."""
    cell = observe(
        simulator,
        queries,
        outcomes,
        backend,
        workers=2,
        enable_stealing=False,
        reliability=ReliabilityConfig(
            cadence="windows:2",
            faults=FaultPlan.parse(CRASHES),
            window_quantum_ms=quantum_ms,
        ),
    )
    report = outcomes[-1].reliability
    assert report.crashes_injected == 2
    cell["windows"] = report.windows
    cell["checkpoints_written"] = report.checkpoints_written
    cell["recoveries"] = tuple(
        (e.worker_id, e.window_index, e.checkpoint_window, e.services_replayed)
        for e in report.recoveries
    )
    return cell


def test_crash_run_matches_parent_commit(simulator, queries, quantum_ms, coordinator_outcomes):
    # Crashes change nothing: GOLDEN_CRASH's digests are the clean run's.
    cell = observe_crash(simulator, queries, quantum_ms, coordinator_outcomes, "process")
    assert cell == GOLDEN_CRASH


@pytest.mark.parametrize("workers", (2, 4))
def test_inline_channels_equal_process_channels_with_stealing_on(
    simulator, queries, quantum_ms, coordinator_outcomes, workers
):
    """One loop, two channel kinds: the steal schedule cannot differ."""
    inline = observe(
        simulator,
        queries,
        coordinator_outcomes,
        "virtual",
        workers=workers,
        steal_quantum_ms=quantum_ms,
    )
    assert inline == GOLDEN[(workers, True)]


def test_single_drain_stays_one_round_trip_per_shard(
    simulator, queries, coordinator_outcomes, monkeypatch
):
    """Stealing off, no reliability: the barrier machinery is not merely
    idle, it is never entered — one drain message per shard, no checkpoint
    directory, no reliability report."""
    from repro.reliability import runtime

    sent = []
    real_send = runtime.ProcessChannel.send

    def recording_send(channel, message):
        sent.append((channel.worker_id, type(message).__name__))
        real_send(channel, message)

    def no_checkpoint_dir(*args, **kwargs):
        raise AssertionError("a plain run must not create a checkpoint directory")

    monkeypatch.setattr(runtime.ProcessChannel, "send", recording_send)
    monkeypatch.setattr(runtime.tempfile, "mkdtemp", no_checkpoint_dir)
    observe(simulator, queries, coordinator_outcomes, "process", workers=2, enable_stealing=False)
    assert coordinator_outcomes[-1].reliability is None
    for worker_id in (0, 1):
        assert [name for shard, name in sent if shard == worker_id] == [
            "RunWindow",
            "Finalize",
            "EndTask",
        ]


if __name__ == "__main__":
    golden_sim = golden_simulator()
    golden_trace = golden_queries()
    window_ms = golden_sim.config.cost.tb_ms * WINDOW_BUCKET_READS
    committed = {str(cell): facts for cell, facts in GOLDEN.items()}
    committed["crash"] = GOLDEN_CRASH
    with pytest.MonkeyPatch.context() as patch:
        outcomes = record_outcomes(patch)
        recorded = {
            str((workers, stealing)): observe(
                golden_sim,
                golden_trace,
                outcomes,
                "virtual",
                workers=workers,
                enable_stealing=stealing,
                steal_quantum_ms=window_ms,
            )
            for workers, stealing in GOLDEN
        }
        recorded["crash"] = observe_crash(golden_sim, golden_trace, window_ms, outcomes, "virtual")
    print(moved_table(committed, recorded))
    for cell, facts in recorded.items():
        moved = {fact: value for fact, value in facts.items() if committed[cell][fact] != value}
        if moved:
            print(f"{cell}: {moved!r}")
