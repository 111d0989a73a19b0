"""Shard worker processes boot once, concurrently, and are reused.

A worker process outlives the run it served: ``ShardCoordinator`` hands
the workers of a run that ended normally to the idle list of
:mod:`repro.parallel.ipc`, and the next process-backend run in this
interpreter draws from it; a reliability run also keeps one spare there
for its crash recoveries.  Reuse must be invisible on the virtual clock —
every run below reproduces the constants ``test_coordinator_golden.py``
recorded when each run still booted its own interpreters — and must leak
nothing from one task into the next.
"""

import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.core.engine import EngineConfig, build_service_loop
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel import shutdown_workers
from repro.parallel import ipc
from repro.parallel.ipc import ShardWorker
from repro.reliability import runtime
from repro.reliability.checkpoint import checkpoint_shard
from repro.storage.bucket_store import BucketStore
from repro.telemetry.registry import metric_key, metric_value
from tests.parallel.test_coordinator_golden import (  # noqa: F401 (fixtures)
    CRASHES,
    GOLDEN,
    GOLDEN_CRASH,
    observe,
    observe_crash,
    quantum_ms,
    queries,
    simulator,
    store_path,
)


def idle_worker_pids():
    """PIDs on the process-backend idle list, oldest first."""
    return [process.pid for process, _ in ipc._IDLE_WORKERS]


def spare_pids():
    """PIDs in the spare slot: started ahead of need, perhaps still booting."""
    return [process.pid for process, _ in ipc._SPARE]


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


def run_cell(simulator, queries, quantum_ms, outcomes, workers, stealing, store=None):
    """One golden process cell plus the boot counters its telemetry carries."""
    cell = observe(
        simulator,
        queries,
        outcomes,
        "process",
        workers=workers,
        enable_stealing=stealing,
        steal_quantum_ms=quantum_ms,
        store_path=store,
    )
    return cell, boot_counters(outcomes[-1].telemetry)


def boot_counters(telemetry):
    """``{"workers_booted": 2, "boot_s": 0.3}``: only counters that exist."""
    names = ("workers_booted", "workers_reused", "boot_s")
    return {
        name: metric_value(telemetry, f"coordinator.{name}")
        for name in names
        if metric_key(f"coordinator.{name}") in telemetry["metrics"]
    }


def test_reused_workers_reproduce_the_golden_runs(
    simulator, queries, quantum_ms, store_path, coordinator_outcomes
):
    """memory x2 -> .lrbs x2 -> x4 -> x2 with stealing, through the same
    children: every run is bit-equal to its cold recording."""
    cell, counters = run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False)
    assert cell == GOLDEN[(2, False)]
    assert counters.pop("boot_s") > 0.0
    assert counters == {"workers_booted": 2}
    first_pair = set(idle_worker_pids())
    assert len(first_pair) == 2

    cell, counters = run_cell(
        simulator, queries, quantum_ms, coordinator_outcomes, 2, False, store_path
    )
    assert cell == GOLDEN[(2, False)]
    assert counters == {"workers_reused": 2}, "a warm run boots nothing and waits for no boot"
    assert set(idle_worker_pids()) == first_pair

    cell, counters = run_cell(
        simulator, queries, quantum_ms, coordinator_outcomes, 4, True, store_path
    )
    assert cell == GOLDEN[(4, True)]
    assert (counters["workers_booted"], counters["workers_reused"]) == (2, 2)
    four = set(idle_worker_pids())
    assert first_pair < four and len(four) == 4

    cell, counters = run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, True)
    assert cell == GOLDEN[(2, True)]
    assert counters == {"workers_reused": 2}
    assert set(idle_worker_pids()) < four


@needs_proc
def test_file_backed_runs_leak_no_descriptor_into_the_workers(
    simulator, queries, quantum_ms, store_path, coordinator_outcomes
):
    def descriptors():
        return {pid: len(os.listdir(f"/proc/{pid}/fd")) for pid in idle_worker_pids()}

    run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False, store_path)
    before = descriptors()
    assert len(before) == 2
    for _ in range(20):
        cell, _ = run_cell(
            simulator, queries, quantum_ms, coordinator_outcomes, 2, False, store_path
        )
        assert cell == GOLDEN[(2, False)]
    assert descriptors() == before


@needs_proc
def test_an_acknowledged_end_task_leaves_no_store_open(
    simulator, queries, quantum_ms, store_path, coordinator_outcomes
):
    """A worker drops its shard before it acknowledges ``EndTask``, so the
    moment a run returns no idle worker still maps the store file."""
    for _ in range(20):
        run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False, store_path)
        for pid in idle_worker_pids():
            fd_dir = f"/proc/{pid}/fd"
            targets = {os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)}
            assert os.fspath(store_path) not in targets


@needs_proc
def test_file_backed_inline_shards_close_their_stores(
    simulator, queries, quantum_ms, store_path, monkeypatch, coordinator_outcomes
):
    """The virtual twin: an inline shard answers ``EndTask`` like a worker
    process does, so its private store is closed — not left to the
    collector, which is off here."""
    closed = []
    real_close = ShardWorker.close

    def recording_close(shard):
        closed.append(shard.worker_id)
        real_close(shard)

    monkeypatch.setattr(ShardWorker, "close", recording_close)
    gc.collect()
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            cell = observe(
                simulator,
                queries,
                coordinator_outcomes,
                "virtual",
                workers=2,
                steal_quantum_ms=quantum_ms,
                store_path=store_path,
            )
            assert cell == GOLDEN[(2, True)]
        assert len(os.listdir("/proc/self/fd")) == before
        assert closed == [0, 1] * 20
    finally:
        gc.enable()


def test_idle_worker_killed_from_outside_is_replaced(
    simulator, queries, quantum_ms, coordinator_outcomes
):
    run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False)
    # What benchmarks/e2e/harness.reap_children does after a failed pass.
    for child in multiprocessing.active_children():
        child.kill()
        child.join(10.0)
    cell, counters = run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False)
    assert cell == GOLDEN[(2, False)]
    assert counters["workers_booted"] == 2 and "workers_reused" not in counters


def crash_cell(simulator, queries, quantum_ms, outcomes, handed_out):
    """One ``GOLDEN_CRASH`` run; returns its boot counters without ``boot_s``.

    Every worker the run was given counts exactly once, booted or reused.
    """
    before = len(handed_out)
    assert observe_crash(simulator, queries, quantum_ms, outcomes, "process") == GOLDEN_CRASH
    counters = boot_counters(outcomes[-1].telemetry)
    counters.pop("boot_s", None)
    assert sum(counters.values()) == len(handed_out) - before
    return counters


def test_crash_run_lists_only_live_workers(
    simulator, queries, quantum_ms, handed_out, coordinator_outcomes
):
    counters = crash_cell(simulator, queries, quantum_ms, coordinator_outcomes, handed_out)
    # Cold: both shards boot on the spot, both recoveries take the spare.
    assert counters == {"workers_booted": 2, "workers_reused": 2}
    # The two first incarnations were SIGKILLed; the spares that replaced
    # them survive, and a fresh spare waits beside them.
    assert len(handed_out) == 4
    killed, survivors = handed_out[:2], handed_out[2:]
    assert not any(p.is_alive() for p in killed)
    assert all(p.is_alive() for p in survivors)
    spare = spare_pids()
    assert len(spare) == 1 and spare[0] not in {p.pid for p in handed_out}
    assert set(idle_worker_pids()) == {p.pid for p in survivors}
    assert not {p.pid for p in killed} & set(idle_worker_pids() + spare)

    cell, counters = run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False)
    assert cell == GOLDEN[(2, False)], "a run after a crash run equals a cold run"
    assert counters == {"workers_reused": 2}
    assert spare_pids() == [], "a run without reliability keeps no spare"
    assert set(idle_worker_pids()) == {p.pid for p in survivors}


def test_a_warm_crash_run_boots_nothing(
    simulator, queries, quantum_ms, handed_out, coordinator_outcomes
):
    crash_cell(simulator, queries, quantum_ms, coordinator_outcomes, handed_out)
    counters = crash_cell(simulator, queries, quantum_ms, coordinator_outcomes, handed_out)
    assert counters == {"workers_reused": 4}
    assert len(idle_worker_pids()) == 2 and len(spare_pids()) == 1


def test_a_spare_killed_from_outside_is_replaced_by_a_cold_boot(
    simulator, queries, quantum_ms, handed_out, coordinator_outcomes
):
    crash_cell(simulator, queries, quantum_ms, coordinator_outcomes, handed_out)
    ((spare, _),) = ipc._SPARE
    spare.kill()
    spare.join(10.0)
    counters = crash_cell(simulator, queries, quantum_ms, coordinator_outcomes, handed_out)
    # The first recovery finds the spare dead and boots; the second takes
    # the spare started after it.
    assert counters == {"workers_booted": 1, "workers_reused": 3}
    assert len(idle_worker_pids()) == 2 and len(spare_pids()) == 1


def test_all_workers_are_started_before_the_first_task_byte(
    simulator, queries, quantum_ms, handed_out, monkeypatch, coordinator_outcomes
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
    _, counters = run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 4, False)
    assert counters["workers_booted"] == 4 and "workers_reused" not in counters
    assert len(set(started_at_first_send[0])) == 4


def test_idle_list_never_exceeds_the_finishing_runs_shards(
    simulator, queries, quantum_ms, handed_out, coordinator_outcomes
):
    run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 4, False)
    assert len(idle_worker_pids()) == 4
    run_cell(simulator, queries, quantum_ms, coordinator_outcomes, 2, False)
    assert len(idle_worker_pids()) == 2
    assert sum(p.is_alive() for p in handed_out[:4]) == 2, "the surplus pair was destroyed"


def test_layout_pickles_as_columns_and_round_trips(simulator, tmp_path):
    layout = simulator.layout
    payload = pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(payload)
    assert restored == layout and hash(restored) == hash(layout)
    assert list(restored) == list(layout)
    assert restored.buckets_for_range(layout[17].htm_range) == [layout[17]]
    assert b"BucketSpec" not in payload and b"HTMRange" not in payload

    # A .lrcp never carries the layout: the same bytes over either object
    # (tests/reliability/test_checkpoint.py pins the size, 6,239).
    def checkpoint_bytes(name, over):
        loop = build_service_loop(
            over,
            BucketStore(over),
            LifeRaftScheduler(SchedulerConfig()),
            EngineConfig(enable_hybrid=False),
        )
        path = tmp_path / name
        checkpoint_shard(path, ShardWorker(0, loop), window_index=0)
        return path.read_bytes()

    assert checkpoint_bytes("restored.lrcp", restored) == checkpoint_bytes("built.lrcp", layout)


#: A process x2 run in a fresh interpreter that writes its idle workers'
#: pids to a file, then exits normally or SIGKILLs itself.  The crash
#: variant SIGKILLs shard 1 at window 1, so the run ends with a spare that
#: was started at the recovery and may still be booting.  Spawned
#: children re-import ``__main__``, so this runs as a script file, not
#: ``-c``; and the test gives it no pipe, since a worker that inherited
#: one would hold it open and hide how long it lived.
_OUTLIVE_SCRIPT = textwrap.dedent(
    """
    import multiprocessing, os, signal, sys

    from repro.reliability import FaultPlan, ReliabilityConfig
    from repro.sim.runspec import RunSpec
    from repro.sim.simulator import SimulationConfig, Simulator
    from repro.workload.generator import TraceConfig, TraceGenerator

    if __name__ == "__main__":
        config = TraceConfig(query_count=20, bucket_count=64, seed=3)
        queries = TraceGenerator(config).generate().with_saturation(1.0).queries
        simulator = Simulator(SimulationConfig(bucket_count=64))
        spec = RunSpec(workers=2, backend="process")
        if sys.argv[3] == "crash":
            reliability = ReliabilityConfig(
                cadence="windows:1", faults=FaultPlan.parse("1@1"), window_quantum_ms=1000.0
            )
            spec = RunSpec(
                workers=2, backend="process", enable_stealing=False, reliability=reliability
            )
        simulator.execute(queries, spec)
        with open(sys.argv[2], "w") as handle:
            handle.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
        if sys.argv[1] == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _gone_or_zombie(pid):
    """``True`` once *pid* has exited (reaped, or a zombie nobody reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@needs_proc
@pytest.mark.parametrize(
    ("run", "ending"),
    (("plain", "exit"), ("plain", "kill"), ("crash", "exit"), ("crash", "kill")),
    ids=("exit", "kill", "crash-exit", "crash-kill"),
)
def test_no_shard_worker_outlives_its_interpreter(tmp_path, run, ending):
    """Idle workers belong to the interpreter that started them: whether it
    exits normally or is SIGKILLed, every one of them — a spare that may
    still be booting included — is gone within 10 s."""
    script, pid_file = tmp_path / "outlive.py", tmp_path / "pids.txt"
    script.write_text(_OUTLIVE_SCRIPT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, str(script), ending, str(pid_file), run],
        env=dict(os.environ, PYTHONPATH=src),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    pids = [int(pid) for pid in pid_file.read_text().split()]
    # Two released shard workers, plus the spare after a crash run.
    assert len(pids) == (3 if run == "crash" else 2)
    deadline = time.monotonic() + 10.0
    while not all(_gone_or_zombie(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if not _gone_or_zombie(pid)] == []
