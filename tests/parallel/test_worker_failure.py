"""A dead or failing shard worker is a typed error, never a hang or a leak.

The policies below misbehave only inside a worker (``next_work`` is never
called in the coordinator), so these tests drive the real failure paths
of the process backend: the child's traceback riding a ``WorkerFailure``
message, and a child that dies without replying.  Both must surface as
the same ``RuntimeError`` with or without a reliability config attached.

Worker processes outlive a *successful* run on the idle list of
:mod:`repro.parallel.ipc`; a failed run must leave none of the workers it
was given alive or listed, and must not wait for a wedged sibling before
raising.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel import ipc, shutdown_workers
from repro.reliability import ReliabilityConfig, runtime
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 32


def idle_worker_pids():
    """PIDs on the process-backend idle list, oldest first."""
    return [process.pid for process, _ in ipc._IDLE_WORKERS]


class ExplodingPolicy(LifeRaftScheduler):
    """Raises from the scheduling decision (must pickle: module level)."""

    def clone(self):
        return ExplodingPolicy(self.config)

    def next_work(self, *args, **kwargs):
        raise ValueError("scheduler exploded inside the shard")


class VanishingPolicy(ExplodingPolicy):
    """Takes the whole worker process down without a goodbye."""

    def clone(self):
        return VanishingPolicy(self.config)

    def next_work(self, *args, **kwargs):
        os._exit(3)


class EOFPolicy(ExplodingPolicy):
    """Raises the one exception type the worker loop treats as "parent gone"."""

    def clone(self):
        return EOFPolicy(self.config)

    def next_work(self, *args, **kwargs):
        raise EOFError("raised by the policy, not by the pipe")


class WedgedPolicy(ExplodingPolicy):
    """A shard that never answers."""

    def next_work(self, *args, **kwargs):
        time.sleep(600)


class ExplodingBesideWedgedPolicy(ExplodingPolicy):
    """Shard 0 (the prototype) raises; every clone wedges."""

    def clone(self):
        return WedgedPolicy(self.config)


class UnpicklablePolicy(LifeRaftScheduler):
    """Cannot cross the pipe: it drags a lock along."""

    def __init__(self, config):
        super().__init__(config)
        self.lock = threading.Lock()

    def clone(self):
        return UnpicklablePolicy(self.config)


@pytest.fixture(scope="module")
def simulator():
    return Simulator(SimulationConfig(bucket_count=BUCKETS))


@pytest.fixture(scope="module")
def queries():
    config = TraceConfig(query_count=12, bucket_count=BUCKETS, seed=5)
    return tuple(TraceGenerator(config).generate().with_saturation(1.0).queries)


def run(simulator, queries, policy_class, reliability, stealing):
    policy = policy_class(SchedulerConfig(cost=simulator.config.cost))
    spec = RunSpec(
        policy=policy,
        backend="process",
        workers=2,
        enable_stealing=stealing,
        reliability=reliability,
    )
    return simulator.execute(queries, spec)


def assert_no_children_left(handed_out):
    """No worker of the failed run is alive or listed as idle, and
    ``shutdown_workers()`` leaves this process without shard workers."""
    assert handed_out, "the run never got as far as a worker process"
    alive = [p for p in handed_out if p.is_alive()]
    assert not alive, f"workers of the failed run are still alive: {alive}"
    listed = set(idle_worker_pids()) & {p.pid for p in handed_out}
    assert not listed, f"workers of the failed run are on the idle list: {listed}"
    shutdown_workers()
    assert idle_worker_pids() == []
    leftovers = [
        p for p in multiprocessing.active_children() if p.name.startswith("liferaft-shard")
    ]
    assert not leftovers, f"worker processes outlived shutdown_workers(): {leftovers}"


RELIABILITY_CASES = pytest.mark.parametrize(
    "reliability",
    (None, ReliabilityConfig(cadence="windows:1")),
    ids=("plain", "reliable"),
)


@RELIABILITY_CASES
@pytest.mark.parametrize("stealing", (False, True), ids=("drain", "windowed"))
def test_child_traceback_reaches_the_caller(
    simulator, queries, reliability, stealing, handed_out
):
    with pytest.raises(RuntimeError, match=r"shard worker \d failed:") as caught:
        run(simulator, queries, ExplodingPolicy, reliability, stealing)
    text = str(caught.value)
    assert "Traceback (most recent call last)" in text
    assert "ValueError: scheduler exploded inside the shard" in text
    assert_no_children_left(handed_out)


def test_dead_child_is_a_typed_error_without_reliability(simulator, queries, handed_out):
    with pytest.raises(RuntimeError, match=r"shard worker \d died without replying") as caught:
        run(simulator, queries, VanishingPolicy, None, stealing=False)
    assert "exit code 3" in str(caught.value)
    assert "recoveries" not in str(caught.value)
    assert_no_children_left(handed_out)


def test_dead_child_exhausts_the_recovery_budget(simulator, queries, handed_out, monkeypatch):
    monkeypatch.setattr(runtime, "MAX_RECOVERIES_PER_WORKER", 2)
    reliability = ReliabilityConfig(cadence="windows:1")
    with pytest.raises(RuntimeError, match="exceeded 2 recoveries"):
        run(simulator, queries, VanishingPolicy, reliability, stealing=False)
    assert_no_children_left(handed_out)


def test_eoferror_inside_a_task_is_a_failure_with_a_traceback(simulator, queries, handed_out):
    """Only the pipe closing under ``recv`` is the worker's quiet exit."""
    with pytest.raises(RuntimeError, match=r"shard worker \d failed:") as caught:
        run(simulator, queries, EOFPolicy, None, stealing=False)
    assert "EOFError: raised by the policy, not by the pipe" in str(caught.value)
    assert_no_children_left(handed_out)


def test_unpicklable_policy_surfaces_the_pickling_error(simulator, queries, handed_out):
    with pytest.raises(TypeError, match="cannot pickle '_thread.lock' object"):
        run(simulator, queries, UnpicklablePolicy, None, stealing=False)
    assert_no_children_left(handed_out)


def test_a_wedged_sibling_does_not_delay_the_error(simulator, queries, handed_out):
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="scheduler exploded inside the shard"):
        run(simulator, queries, ExplodingBesideWedgedPolicy, None, stealing=False)
    assert time.monotonic() - started < 8.0, "the failure waited for the wedged shard"
    assert_no_children_left(handed_out)
