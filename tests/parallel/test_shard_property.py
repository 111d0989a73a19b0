"""One shard's timeline does not depend on where its windows fall.

A window boundary pauses a :class:`~repro.parallel.ipc.ShardWorker`'s
timeline without altering it, and a checkpoint taken at a boundary
resumes it exactly — also when queue migrations (releases and adopts, as
stealing and scale-down send them) land between windows, whether the
stage is still the shard's own schedule (checkpointed as a length) or a
migration changed it (checkpointed as shares).  The coordinator's fixed
window grid relies on the first fact and crash recovery on the second; a
variable grid relies on both holding for *any* sorted list of
boundaries, which is what the properties below draw.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.core.workload_manager import WorkloadEntry
from repro.parallel.ipc import AdoptBucket, ReleasedAll, ShardTask, ShardWorker
from repro.parallel.worker import StagedShare
from repro.reliability.checkpoint import checkpoint_shard, restore_shard
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import BucketPartitioner
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain

BUCKETS = 16
LAYOUT = BucketPartitioner().partition_density(BUCKETS)

#: One share: arrival gap (ms), bucket, object count.  Small and large
#: counts both occur, so both join strategies are exercised.
shares = st.lists(
    st.tuples(
        st.sampled_from((0.0, 10.0, 150.0, 900.0, 2_500.0)),
        st.integers(min_value=0, max_value=BUCKETS - 1),
        st.sampled_from((5, 60, 400, 3_000)),
    ),
    min_size=1,
    max_size=30,
)
#: Window boundaries as sorted fractions of the drained timeline, so they
#: land between arrivals and services rather than after the last one.
fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8).map(sorted)
#: The migrations landing at one barrier: release a bucket's queue and
#: staged future, or adopt a queue of one query (the schedule's own ids
#: included, so finished queries re-open) with or without a staged share
#: at the given delay past the barrier.
moves = st.lists(
    st.one_of(
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=BUCKETS - 1)),
        st.tuples(
            st.just("adopt"),
            st.integers(min_value=0, max_value=BUCKETS - 1),
            st.integers(min_value=0, max_value=15),
            st.sampled_from((5, 400)),
            st.sampled_from((None, 0.0, 700.0)),
        ),
    ),
    max_size=3,
)


def schedule(drawn):
    """Drawn shares as a staged schedule in arrival order.

    Queries come in pairs of shares, as the coordinator's fan-out stages a
    query that touches two of the shard's buckets: one arrival time, two
    distinct buckets.
    """
    arrivals, now_ms = [], 0.0
    for i, (gap_ms, bucket, objects) in enumerate(drawn):
        if i % 2 == 0:
            now_ms += gap_ms
        elif bucket == arrivals[-1].bucket_index:
            bucket = (bucket + 1) % BUCKETS
        arrivals.append(StagedShare(now_ms, i // 2, bucket, objects))
    return tuple(arrivals)


def build_shard(arrivals):
    return ShardWorker.from_task(
        ShardTask(
            worker_id=0,
            config=EngineConfig(),
            policy=LifeRaftScheduler(SchedulerConfig()),
            snapshot=BucketStore(LAYOUT).snapshot(),
            arrivals=arrivals,
        )
    )


def lane_snapshot(shard):
    return filter_domain(shard.loop.telemetry.snapshot(), VIRTUAL_DOMAIN)


def boundaries(points, records):
    """*points* scaled to the span of a drained timeline."""
    horizon = records[-1].finished_at_ms if records else 0.0
    return [point * horizon for point in points]


@settings(max_examples=100, deadline=None)
@given(drawn=shares, points=fractions)
def test_windows_pause_the_timeline_without_altering_it(drawn, points):
    arrivals = schedule(drawn)
    reference = build_shard(arrivals)
    drained = reference.advance(None)
    cuts = boundaries(points, drained)

    shard = build_shard(arrivals)
    windowed = []
    for until_ms in cuts:
        window = shard.advance(until_ms)
        assert all(record.started_at_ms < until_ms for record in window)
        windowed.extend(window)
    windowed.extend(shard.advance(None))

    assert windowed == drained
    assert [record.seq for record in drained] == list(range(len(drained)))
    assert lane_snapshot(shard) == lane_snapshot(reference)


@settings(max_examples=100, deadline=None)
@given(drawn=shares, points=fractions.filter(bool), data=st.data())
def test_a_checkpoint_at_any_boundary_resumes_the_same_tail(drawn, points, data):
    arrivals = schedule(drawn)
    reference = build_shard(arrivals)
    drained = reference.advance(None)
    cuts = boundaries(points, drained)

    stop = data.draw(st.integers(min_value=0, max_value=len(cuts) - 1), label="stop")
    shard = build_shard(arrivals)
    head = []
    for until_ms in cuts[: stop + 1]:
        head.extend(shard.advance(until_ms))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "shard.lrcp")
        checkpoint_shard(path, shard, window_index=stop)
        recovered = build_shard(arrivals)
        restore_shard(path, recovered, expected_generation=recovered.loop.cache.store.generation)
    assert recovered.seq == len(head)
    tail = recovered.advance(None)

    assert head + tail == drained
    assert tail == shard.advance(None)
    assert lane_snapshot(recovered) == lane_snapshot(reference)


def migrate(shard, arrivals, barrier_ms, window_moves):
    """Apply one barrier's migrations to *shard*; returns the release replies.

    An adopted entry keeps its query's scheduled arrival as its enqueue
    time (the barrier for a query the schedule does not have).
    """
    arrival_of = {share.query_id: share.arrival_ms for share in arrivals}
    replies = []
    for move in window_moves:
        if move[0] == "release":
            replies.append(shard.release(move[1]))
            continue
        _, bucket, query_id, objects, delay_ms = move
        staged = ()
        if delay_ms is not None:
            staged = (StagedShare(barrier_ms + delay_ms, query_id, bucket, objects),)
        enqueue_ms = min(arrival_of.get(query_id, barrier_ms), barrier_ms)
        shard.adopt(
            AdoptBucket(bucket, (WorkloadEntry(query_id, objects, enqueue_ms),), staged, barrier_ms)
        )
    return replies


def run_windows(shard, arrivals, cuts, plan):
    """Advance *shard* through *cuts*, migrating at each barrier."""
    records, replies = [], []
    for until_ms, window_moves in zip(cuts, plan):
        records.extend(shard.advance(until_ms))
        replies.extend(migrate(shard, arrivals, until_ms, window_moves))
    return records, replies


@settings(max_examples=100, deadline=None)
@given(drawn=shares, points=fractions.filter(bool), data=st.data())
def test_a_checkpoint_between_migrations_resumes_the_same_tail(drawn, points, data):
    arrivals = schedule(drawn)
    cuts = boundaries(points, build_shard(arrivals).advance(None))
    plan = data.draw(st.lists(moves, min_size=len(cuts), max_size=len(cuts)), label="plan")
    stop = data.draw(st.integers(min_value=0, max_value=len(cuts) - 1), label="stop")

    reference = build_shard(arrivals)
    records, replies = run_windows(reference, arrivals, cuts, plan)
    records.extend(reference.advance(None))

    shard = build_shard(arrivals)
    head, head_replies = run_windows(shard, arrivals, cuts[: stop + 1], plan)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "shard.lrcp")
        checkpoint_shard(path, shard, window_index=stop)
        recovered = build_shard(arrivals)
        restore_shard(path, recovered, expected_generation=recovered.loop.cache.store.generation)
    assert recovered.stage_is_own == shard.stage_is_own
    assert recovered.staged == shard.staged
    assert recovered.seq == len(head)
    tail, tail_replies = run_windows(recovered, arrivals, cuts[stop + 1 :], plan[stop + 1 :])
    tail.extend(recovered.advance(None))

    assert head + tail == records
    assert head_replies + tail_replies == replies
    assert lane_snapshot(recovered) == lane_snapshot(reference)


def release_all_oracle(shard):
    """Scale-down's evacuation as one :meth:`ShardWorker.release` per bucket."""
    buckets = set(shard.loop.manager.pending_buckets())
    buckets.update(share.bucket_index for share in shard.staged)
    return ReleasedAll(shard.worker_id, tuple(shard.release(b) for b in sorted(buckets)))


@settings(max_examples=100, deadline=None)
@given(drawn=shares, points=fractions, data=st.data())
def test_release_all_equals_one_release_per_bucket(drawn, points, data):
    arrivals = schedule(drawn)
    cuts = boundaries(points, build_shard(arrivals).advance(None))
    plan = data.draw(st.lists(moves, min_size=len(cuts), max_size=len(cuts)), label="plan")
    shard, oracle = build_shard(arrivals), build_shard(arrivals)
    for subject in (shard, oracle):
        run_windows(subject, arrivals, cuts, plan)

    assert shard.release_all() == release_all_oracle(oracle)
    assert not shard.staged and not shard.loop.manager.has_pending_work()
    assert not oracle.staged and not oracle.loop.manager.has_pending_work()
