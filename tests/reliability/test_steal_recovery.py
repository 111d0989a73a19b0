"""A shard dying at any barrier message is recovered bit for bit.

A steal is two round trips — the victim's ``ReleaseBucket`` and the
thief's ``AdoptBucket`` — and the migration is journaled as soon as both
were delivered.  Either shard may die (unplanned) in between, or while
capturing a checkpoint; the coordinator's one retry rule recovers it —
the restored shard catches up at the barriers it missed — and re-sends
the message (the in-flight migration is not journaled yet, so the
catch-up cannot deliver it twice).  The recovered run is the clean run:
same services, steals, window boundaries and completions.
"""

import dataclasses

import pytest

from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec
from repro.parallel.ipc import AdoptBucket, EndTask, ReleaseBucket, RunWindow
from repro.reliability import FaultPlan, ReliabilityConfig
from repro.reliability import runtime
from repro.reliability.runtime import ChannelCrashed, InlineChannel, ShardCoordinator
from repro.sim.simulator import SimulationConfig
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.partitioner import BucketPartitioner
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 64
WINDOW_BUCKET_READS = 4.0
#: Sparse enough that a recovery replays lost work and migrations.
CADENCE = "windows:3"


def dying_channel(should_die):
    """An inline channel class that dies once, at the first reply
    *should_die* ``(message, replies so far)`` accepts; the reply count
    is shared by every shard of the run."""
    fired = []
    replies = [0]

    class DyingChannel(InlineChannel):
        def receive(self):
            replies[0] += 1
            if not fired and should_die(self._inbox, replies[0]):
                fired.append(self.worker_id)
                self.kill()  # an unplanned death: all shard state is gone
                raise ChannelCrashed(self.worker_id)
            return super().receive()

    return DyingChannel, fired, replies


def run(channel_class, **spec_fields):
    """Execute the trace on inline shards of *channel_class*."""
    sim_config = SimulationConfig(bucket_count=BUCKETS)
    layout = BucketPartitioner().partition_density(BUCKETS)
    disk = calibrated_disk_for_bucket_read(
        sim_config.bucket_megabytes, sim_config.cost.tb_ms / 1000.0
    )
    trace = TraceGenerator(TraceConfig(query_count=60, bucket_count=BUCKETS, seed=21))
    spec = ParallelRunSpec(
        layout=layout,
        store=BucketStore(layout, disk),
        queries=tuple(trace.generate().with_saturation(1.0).queries),
        policy=LifeRaftScheduler(SchedulerConfig(cost=sim_config.cost)),
        config=EngineConfig(cache_buckets=sim_config.cache_buckets, cost=sim_config.cost),
        workers=2,
        shard_strategy="zone",
        steal_quantum_ms=sim_config.cost.tb_ms * WINDOW_BUCKET_READS,
        reliability=ReliabilityConfig(cadence=CADENCE),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(runtime.CHANNEL_KINDS, "virtual", channel_class)
        return ShardCoordinator(dataclasses.replace(spec, **spec_fields), "virtual").execute()


def facts(outcome):
    """Everything a recovery must leave exactly as the clean run had it."""
    return (
        [
            (r.worker_id, r.seq, r.bucket_index, r.started_at_ms, r.finished_at_ms)
            for r in outcome.services
        ],
        outcome.steal_records,
        outcome.window_boundaries_ms,
        outcome.report.response_times_ms,
        outcome.report.busy_time_ms,
    )


@pytest.fixture(scope="module")
def clean():
    outcome = run(InlineChannel)
    assert outcome.steal_records, "the trace must really exercise stealing"
    return outcome


@pytest.mark.parametrize("message_type", (AdoptBucket, ReleaseBucket), ids=("thief", "victim"))
def test_shard_death_mid_steal_is_recovered(clean, message_type):
    channel_class, fired, _ = dying_channel(
        lambda message, _: isinstance(message, message_type)
    )
    outcome = run(channel_class)
    assert len(fired) == 1
    (recovery,) = outcome.reliability.recoveries
    assert recovery.worker_id == fired[0]
    assert facts(outcome) == facts(clean)


def test_shard_death_at_every_message_is_recovered_exactly(clean):
    """Wherever the death lands — a window, either half of a steal, a
    checkpoint capture, the final accounting — nothing moves."""
    counting, _, replies = dying_channel(lambda message, count: False)
    run(counting)
    for death in range(1, replies[0] + 1):
        channel_class, fired, _ = dying_channel(
            lambda message, count, death=death: count == death
            and not isinstance(message, EndTask)
        )
        outcome = run(channel_class)
        assert facts(outcome) == facts(clean), (death, fired)


def test_stealing_off_recovery_sends_one_empty_window():
    """Without migrations to replay the catch-up is a single view refresh:
    the restored shard gets one ``RunWindow(0.0)``, then the re-sent
    window."""
    sent = []

    class Recording(InlineChannel):
        def send(self, message):
            sent.append((self.worker_id, message))
            super().send(message)

        def respawn(self, checkpoint_path):
            sent.append((self.worker_id, "respawn"))
            super().respawn(checkpoint_path)

    reliability = ReliabilityConfig(cadence=CADENCE, faults=FaultPlan.parse("1@4"))
    run(Recording, enable_stealing=False, reliability=reliability)
    to_shard = [message for worker_id, message in sent if worker_id == 1]
    restored = to_shard.index("respawn", 1)  # the first respawn is the boot
    assert to_shard[restored + 1] == RunWindow(0.0)
    assert isinstance(to_shard[restored + 2], RunWindow)
    assert to_shard[restored + 2].until_ms > 0.0
