"""Every half of a journaled steal survives the shard dying under it.

A steal is two round trips — the victim's ``ReleaseBucket`` and the
thief's ``AdoptBucket`` — and the migration is journaled only after
both.  Either shard may die (unplanned) in between; the coordinator's
one retry rule recovers it and re-sends the message (the migration is
not journaled yet, so re-settlement cannot deliver it twice).
"""

import pytest

from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.parallel.backend import ParallelRunSpec
from repro.parallel.ipc import AdoptBucket, ReleaseBucket
from repro.reliability import ReliabilityConfig
from repro.reliability.runtime import ChannelCrashed, InlineChannel, ShardCoordinator
from repro.sim.simulator import SimulationConfig
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.index import SpatialIndex
from repro.storage.partitioner import BucketPartitioner
from repro.workload.generator import TraceConfig, TraceGenerator

BUCKETS = 64
WINDOW_BUCKET_READS = 4.0


def flaky_channel(message_type):
    """An inline channel that dies once on its first *message_type* reply."""
    fired = []

    class FlakyChannel(InlineChannel):
        def receive(self):
            if isinstance(self._inbox, message_type) and not fired:
                fired.append(self.worker_id)
                self.kill()  # an unplanned death: all shard state is gone
                raise ChannelCrashed(self.worker_id)
            return super().receive()

    return FlakyChannel, fired


def coordinator(channel_class):
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
        index=SpatialIndex([], rows=None, disk=None),
        steal_quantum_ms=sim_config.cost.tb_ms * WINDOW_BUCKET_READS,
        reliability=ReliabilityConfig(cadence="windows:1"),
    )
    return ShardCoordinator(spec, "virtual", channel_class)


@pytest.fixture(scope="module")
def clean():
    outcome = coordinator(InlineChannel).execute()
    assert outcome.steal_records, "the trace must really exercise stealing"
    return outcome


@pytest.mark.parametrize("message_type", (AdoptBucket, ReleaseBucket), ids=("thief", "victim"))
def test_shard_death_mid_steal_is_recovered(clean, message_type):
    channel_class, fired = flaky_channel(message_type)
    outcome = coordinator(channel_class).execute()
    assert len(fired) == 1
    (recovery,) = outcome.reliability.recoveries
    assert recovery.worker_id == fired[0]
    # Stealing-on recovery is completion-set (not timeline) equal.
    assert sorted(outcome.report.response_times_ms) == sorted(clean.report.response_times_ms)
    assert outcome.coverage() == clean.coverage()
    assert len(outcome.steal_records) >= 1
