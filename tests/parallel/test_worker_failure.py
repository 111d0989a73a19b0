"""A dead or failing shard worker is a typed error, never a hang or a leak.

The policies below misbehave only inside a worker (``next_work`` is never
called in the coordinator), so these tests drive the real failure paths
of the process backend: the child's traceback riding a ``WorkerFailure``
message, and a child that dies without replying.  Both must surface as
the same ``RuntimeError`` with or without a reliability config attached,
and no child process may outlive the call.
"""

import multiprocessing
import os

import pytest

from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.reliability import ReliabilityConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 32


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


def assert_no_children_left():
    leftovers = [
        p for p in multiprocessing.active_children() if p.name.startswith("liferaft-shard")
    ]
    assert not leftovers, f"worker processes outlived the run: {leftovers}"


RELIABILITY_CASES = pytest.mark.parametrize(
    "reliability",
    (None, ReliabilityConfig(cadence="windows:1")),
    ids=("plain", "reliable"),
)


@RELIABILITY_CASES
@pytest.mark.parametrize("stealing", (False, True), ids=("drain", "windowed"))
def test_child_traceback_reaches_the_caller(simulator, queries, reliability, stealing):
    with pytest.raises(RuntimeError, match=r"shard worker \d failed:") as caught:
        run(simulator, queries, ExplodingPolicy, reliability, stealing)
    text = str(caught.value)
    assert "Traceback (most recent call last)" in text
    assert "ValueError: scheduler exploded inside the shard" in text
    assert_no_children_left()


def test_dead_child_is_a_typed_error_without_reliability(simulator, queries):
    with pytest.raises(RuntimeError, match=r"shard worker \d died without replying") as caught:
        run(simulator, queries, VanishingPolicy, None, stealing=False)
    assert "exit code 3" in str(caught.value)
    assert "recoveries" not in str(caught.value)
    assert_no_children_left()


def test_dead_child_exhausts_the_recovery_budget(simulator, queries):
    reliability = ReliabilityConfig(cadence="windows:1", max_recoveries_per_worker=2)
    with pytest.raises(RuntimeError, match="exceeded 2 recoveries"):
        run(simulator, queries, VanishingPolicy, reliability, stealing=False)
    assert_no_children_left()
