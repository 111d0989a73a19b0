"""Shard-plan construction: coverage, balance and determinism."""

import random

import pytest

from repro.htm.curve import HTMRange
from repro.parallel.sharding import (
    SHARD_STRATEGIES,
    make_shard_plan,
    partition_round_robin,
    partition_zones,
)
from repro.storage.partitioner import BucketPartitioner, BucketSpec, PartitionLayout


def build_layout(bucket_count=64, densities=None):
    partitioner = BucketPartitioner(objects_per_bucket=100, bucket_megabytes=1.0)
    return partitioner.partition_density(bucket_count, densities=densities)


def random_layout(seed, max_buckets=96):
    """A layout with randomly skewed per-bucket object populations."""
    rng = random.Random(seed)
    bucket_count = rng.randint(8, max_buckets)
    specs = []
    cursor = 0
    for index in range(bucket_count):
        width = rng.randint(1, 50)
        count = rng.randint(1, 5_000)
        specs.append(
            BucketSpec(index, HTMRange(cursor, cursor + width - 1), count, count / 100.0)
        )
        cursor += width
    return PartitionLayout(specs, leaf_level=10)


def buckets_of(plan, worker_id):
    """All buckets owned by *worker_id*, in curve order."""
    return tuple(index for index, owner in enumerate(plan.owners) if owner == worker_id)


class TestRoundRobin:
    def test_every_bucket_owned_exactly_once(self):
        layout = build_layout(64)
        plan = partition_round_robin(layout, 4)
        assert len(plan.owners) == len(layout)
        seen = [bucket for worker in range(4) for bucket in buckets_of(plan, worker)]
        assert sorted(seen) == list(range(len(layout)))

    def test_modular_assignment(self):
        plan = partition_round_robin(build_layout(10), 3)
        assert plan.owners == (0, 1, 2, 0, 1, 2, 0, 1, 2, 0)

    def test_balanced_within_one_bucket(self):
        plan = partition_round_robin(build_layout(65), 4)
        counts = plan.bucket_counts()
        assert max(counts) - min(counts) <= 1

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            partition_round_robin(build_layout(8), 0)


class TestZones:
    def test_zones_are_contiguous(self):
        layout = build_layout(64)
        plan = partition_zones(layout, 4)
        # Owners must be non-decreasing along the curve: each worker owns
        # one contiguous run of buckets.
        assert list(plan.owners) == sorted(plan.owners)

    def test_every_worker_owns_at_least_one_bucket(self):
        for workers in (1, 2, 3, 7, 16):
            plan = partition_zones(build_layout(16), workers)
            assert all(count >= 1 for count in plan.bucket_counts())

    def test_object_population_roughly_balanced(self):
        layout = build_layout(64)
        plan = partition_zones(layout, 4)
        totals = [0] * 4
        for bucket in layout:
            totals[plan.owner_of(bucket.index)] += bucket.object_count
        expected = layout.total_objects() / 4
        for total in totals:
            assert total == pytest.approx(expected, rel=0.25)

    def test_more_workers_than_buckets_rejected(self):
        with pytest.raises(ValueError):
            partition_zones(build_layout(4), 5)


class TestDeterminism:
    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_same_inputs_same_plan(self, strategy, workers):
        layout_a = build_layout(48)
        layout_b = build_layout(48)
        plan_a = make_shard_plan(layout_a, workers, strategy)
        plan_b = make_shard_plan(layout_b, workers, strategy)
        assert plan_a.owners == plan_b.owners
        assert plan_a.strategy == strategy
        assert plan_a.worker_count == workers

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown shard strategy"):
            make_shard_plan(build_layout(8), 2, "hash")


class TestPartitionProperties:
    """Property-style checks: every plan must be a consistent partition.

    For randomly skewed layouts and every worker count 1–8, both
    strategies must assign every bucket to exactly one worker, with
    ``owner_of`` and the owners list two views of the same assignment.
    """

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    @pytest.mark.parametrize("seed", range(12))
    def test_plan_is_a_partition(self, strategy, seed):
        layout = random_layout(seed)
        for workers in range(1, 9):
            if workers > len(layout):
                continue
            plan = make_shard_plan(layout, workers, strategy)
            # owner_of covers every bucket with an in-range worker id.
            owners = [plan.owner_of(index) for index in range(len(layout))]
            assert all(0 <= owner < workers for owner in owners)
            # buckets_of partitions the bucket range: disjoint and complete.
            claimed = []
            for worker_id in range(workers):
                claimed.extend(buckets_of(plan, worker_id))
            assert sorted(claimed) == list(range(len(layout))), (
                f"{strategy} with {workers} workers on seed {seed} is not a partition"
            )
            assert len(claimed) == len(set(claimed)), "a bucket has two owners"
            # The two views agree bucket by bucket.
            for worker_id in range(workers):
                for bucket_index in buckets_of(plan, worker_id):
                    assert plan.owner_of(bucket_index) == worker_id
            # Every worker owns at least one bucket and the counts add up.
            counts = plan.bucket_counts()
            assert sum(counts) == len(layout)
            assert all(count >= 1 for count in counts)

    @pytest.mark.parametrize("seed", range(6))
    def test_zone_plans_stay_contiguous_under_skew(self, seed):
        layout = random_layout(seed)
        for workers in range(1, min(9, len(layout) + 1)):
            plan = partition_zones(layout, workers)
            assert list(plan.owners) == sorted(plan.owners), (
                "zone ownership must be non-decreasing along the curve"
            )

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_plans_are_deterministic_functions_of_inputs(self, strategy, seed):
        for workers in (1, 3, 8):
            first = make_shard_plan(random_layout(seed), workers, strategy)
            second = make_shard_plan(random_layout(seed), workers, strategy)
            assert first.owners == second.owners


class TestShardPlan:
    def test_owner_range_validated(self):
        from repro.parallel.sharding import ShardPlan

        with pytest.raises(ValueError):
            ShardPlan("round_robin", 2, (0, 1, 2))

    def test_describe_reports_balance(self):
        plan = partition_round_robin(build_layout(10), 4)
        summary = plan.describe()
        assert summary["worker_count"] == 4.0
        assert summary["bucket_count"] == 10.0
        assert summary["min_buckets"] == 2.0
        assert summary["max_buckets"] == 3.0
