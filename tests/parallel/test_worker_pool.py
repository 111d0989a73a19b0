"""Shard worker processes boot once, concurrently, and are reused.

A worker process outlives the run it served: ``ShardCoordinator`` hands
the workers of a run that ended normally to the idle list of
:mod:`repro.parallel.ipc`, and the next process-backend run in this
interpreter draws from it.  Reuse must be invisible on the virtual clock —
every run below reproduces the constants ``test_coordinator_golden.py``
recorded when each run still booted its own interpreters — and must leak
nothing from one task into the next.
"""

import gc
import multiprocessing
import os
import pickle

import pytest

from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel import shutdown_workers
from repro.parallel import ipc
from repro.parallel.ipc import ShardReplayer
from repro.parallel.worker import build_shard_worker
from repro.reliability import FaultPlan, ReliabilityConfig, runtime
from repro.reliability.checkpoint import checkpoint_worker
from repro.storage.bucket_store import BucketStore
from repro.telemetry.registry import metric_key, metric_value
from tests.parallel.test_coordinator_golden import (  # noqa: F401 (fixtures)
    CRASHES,
    GOLDEN,
    GOLDEN_CRASH,
    RecordingProcess,
    RecordingVirtual,
    observe,
    quantum_ms,
    queries,
    simulator,
    store_path,
)


def idle_worker_pids():
    """PIDs on the process-backend idle list, oldest first."""
    return [process.pid for process, _ in ipc._IDLE_WORKERS]

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")


@pytest.fixture(autouse=True)
def empty_idle_list():
    """Every test starts without idle workers and leaves none behind."""
    shutdown_workers()
    yield
    shutdown_workers()
    assert not [
        p for p in multiprocessing.active_children() if p.name.startswith("liferaft-shard")
    ]


def run_cell(simulator, queries, quantum_ms, workers, stealing, store=None):
    """One golden cell plus the boot counters its telemetry carries."""
    backend = RecordingProcess()
    cell = observe(
        simulator,
        queries,
        backend,
        workers=workers,
        enable_stealing=stealing,
        steal_quantum_ms=quantum_ms,
        store_path=store,
    )
    return cell, boot_counters(backend.outcome.telemetry)


def boot_counters(telemetry):
    """``{"workers_booted": 2, "boot_s": 0.3}``: only counters that exist."""
    names = ("workers_booted", "workers_reused", "boot_s")
    return {
        name: metric_value(telemetry, f"coordinator.{name}")
        for name in names
        if metric_key(f"coordinator.{name}") in telemetry["metrics"]
    }


def test_reused_workers_reproduce_the_golden_runs(simulator, queries, quantum_ms, store_path):
    """memory x2 -> .lrbs x2 -> x4 -> x2 with stealing, through the same
    children: every run is bit-equal to its cold recording."""
    cell, counters = run_cell(simulator, queries, quantum_ms, 2, False)
    assert cell == GOLDEN[(2, False)]
    assert counters.pop("boot_s") > 0.0
    assert counters == {"workers_booted": 2}
    first_pair = set(idle_worker_pids())
    assert len(first_pair) == 2

    cell, counters = run_cell(simulator, queries, quantum_ms, 2, False, store_path)
    assert cell == GOLDEN[(2, False)]
    assert counters == {"workers_reused": 2}, "a warm run boots nothing and waits for no boot"
    assert set(idle_worker_pids()) == first_pair

    cell, counters = run_cell(simulator, queries, quantum_ms, 4, True, store_path)
    assert cell == GOLDEN[(4, True)]
    assert (counters["workers_booted"], counters["workers_reused"]) == (2, 2)
    four = set(idle_worker_pids())
    assert first_pair < four and len(four) == 4

    cell, counters = run_cell(simulator, queries, quantum_ms, 2, True)
    assert cell == GOLDEN[(2, True)]
    assert counters == {"workers_reused": 2}
    assert set(idle_worker_pids()) < four


@needs_proc
def test_file_backed_runs_leak_no_descriptor_into_the_workers(
    simulator, queries, quantum_ms, store_path
):
    def descriptors():
        return {pid: len(os.listdir(f"/proc/{pid}/fd")) for pid in idle_worker_pids()}

    run_cell(simulator, queries, quantum_ms, 2, False, store_path)
    before = descriptors()
    assert len(before) == 2
    for _ in range(20):
        cell, _ = run_cell(simulator, queries, quantum_ms, 2, False, store_path)
        assert cell == GOLDEN[(2, False)]
    assert descriptors() == before


@needs_proc
def test_an_acknowledged_end_task_leaves_no_store_open(
    simulator, queries, quantum_ms, store_path
):
    """A worker drops its shard before it acknowledges ``EndTask``, so the
    moment a run returns no idle worker still maps the store file."""
    for _ in range(20):
        run_cell(simulator, queries, quantum_ms, 2, False, store_path)
        for pid in idle_worker_pids():
            fd_dir = f"/proc/{pid}/fd"
            targets = {os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)}
            assert os.fspath(store_path) not in targets


@needs_proc
def test_file_backed_inline_shards_close_their_stores(
    simulator, queries, quantum_ms, store_path, monkeypatch
):
    """The virtual twin: an inline shard answers ``EndTask`` like a worker
    process does, so its private store is closed — not left to the
    collector, which is off here."""
    closed = []
    real_close = ShardReplayer.close

    def recording_close(replayer):
        closed.append(replayer.worker.worker_id)
        real_close(replayer)

    monkeypatch.setattr(ShardReplayer, "close", recording_close)
    gc.collect()
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            cell = observe(
                simulator,
                queries,
                RecordingVirtual(),
                workers=2,
                steal_quantum_ms=quantum_ms,
                store_path=store_path,
            )
            assert cell == GOLDEN[(2, True)]
        assert len(os.listdir("/proc/self/fd")) == before
        assert closed == [0, 1] * 20
    finally:
        gc.enable()


def test_idle_worker_killed_from_outside_is_replaced(simulator, queries, quantum_ms):
    run_cell(simulator, queries, quantum_ms, 2, False)
    # What benchmarks/e2e/harness.reap_children does after a failed pass.
    for child in multiprocessing.active_children():
        child.kill()
        child.join(10.0)
    cell, counters = run_cell(simulator, queries, quantum_ms, 2, False)
    assert cell == GOLDEN[(2, False)]
    assert counters["workers_booted"] == 2 and "workers_reused" not in counters


def test_crash_run_lists_only_live_workers(simulator, queries, quantum_ms, handed_out):
    backend = RecordingProcess()
    cell = observe(
        simulator,
        queries,
        backend,
        workers=2,
        enable_stealing=False,
        reliability=ReliabilityConfig(
            cadence="windows:2",
            faults=FaultPlan.parse(CRASHES),
            window_quantum_ms=quantum_ms,
        ),
    )
    assert backend.outcome.reliability.crashes_injected == 2
    assert cell.items() <= GOLDEN_CRASH.items()
    # Two first incarnations were SIGKILLed; their two replacements survive.
    assert len(handed_out) == 4
    survivors = {p.pid for p in handed_out if p.is_alive()}
    assert set(idle_worker_pids()) == survivors and len(survivors) == 2
    assert boot_counters(backend.outcome.telemetry)["workers_booted"] == 4

    cell, counters = run_cell(simulator, queries, quantum_ms, 2, False)
    assert cell == GOLDEN[(2, False)], "a run after a crash run equals a cold run"
    assert counters == {"workers_reused": 2}


def test_all_workers_are_started_before_the_first_task_byte(
    simulator, queries, quantum_ms, handed_out, monkeypatch
):
    """Concurrent boot, structurally: the task travels inside the first
    ``send``, and by then every shard's process exists."""
    started_at_first_send = []
    real_send = runtime.ProcessChannel.send

    def recording_send(channel, message):
        if not started_at_first_send:
            started_at_first_send.append([p.pid for p in handed_out if p.is_alive()])
        real_send(channel, message)

    monkeypatch.setattr(runtime.ProcessChannel, "send", recording_send)
    _, counters = run_cell(simulator, queries, quantum_ms, 4, False)
    assert counters["workers_booted"] == 4 and "workers_reused" not in counters
    assert len(set(started_at_first_send[0])) == 4


def test_idle_list_never_exceeds_the_finishing_runs_shards(
    simulator, queries, quantum_ms, handed_out
):
    run_cell(simulator, queries, quantum_ms, 4, False)
    assert len(idle_worker_pids()) == 4
    run_cell(simulator, queries, quantum_ms, 2, False)
    assert len(idle_worker_pids()) == 2
    assert sum(p.is_alive() for p in handed_out[:4]) == 2, "the surplus pair was destroyed"


def test_layout_pickles_as_columns_and_round_trips(simulator, tmp_path):
    layout = simulator.layout
    payload = pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(payload)
    assert restored == layout and hash(restored) == hash(layout)
    assert restored.buckets == layout.buckets
    assert restored.buckets_for_range(layout[17].htm_range) == [layout[17]]
    assert b"BucketSpec" not in payload and b"HTMRange" not in payload

    # A .lrcp never carries the layout: the same bytes over either object
    # (tests/reliability/test_checkpoint.py pins the size, 6,397).
    def checkpoint_bytes(name, over):
        worker = build_shard_worker(
            0, over, BucketStore(over), LifeRaftScheduler(SchedulerConfig()), EngineConfig()
        )
        path = tmp_path / name
        checkpoint_worker(path, worker, 0, window_index=0)
        return path.read_bytes()

    assert checkpoint_bytes("restored.lrcp", restored) == checkpoint_bytes("built.lrcp", layout)
