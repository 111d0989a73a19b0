"""Tests for the hybrid join evaluator (strategy choice + spatial merge join)."""

import dataclasses

import pytest

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.core.bucket_cache import BucketCacheManager
from repro.core.join_evaluator import HybridJoinEvaluator, JoinStrategy
from repro.core.metrics import CostModel
from repro.core.preprocessor import QueryPreProcessor
from repro.core.workload_manager import WorkloadEntry
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.ingest import ingest_catalog
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchQuery
from tests.core.join_oracle import (
    SMALL_BUCKET_COST,
    crossmatch_catalogs,
    to_crossmatch_objects,
)


def make_virtual_setup(cache_capacity=4):
    """Cost-model-only setup over a virtual (count-based) store."""
    cost = CostModel.paper_defaults()
    layout = BucketPartitioner(objects_per_bucket=10_000, bucket_megabytes=40.0).partition_density(
        8
    )
    store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
    cache = BucketCacheManager(store, capacity=cache_capacity)
    evaluator = HybridJoinEvaluator(cost, cache, enable_hybrid=True)
    return evaluator, layout, cache


def entries_for(counts, start_query=0):
    return [
        WorkloadEntry(query_id=start_query + i, object_count=count, enqueue_time_ms=0.0)
        for i, count in enumerate(counts)
    ]


class TestStrategyChoice:
    def test_small_cold_queue_uses_index(self):
        evaluator, layout, _cache = make_virtual_setup()
        strategy = evaluator.choose_strategy(100, 10_000, bucket_resident=False)
        assert strategy is JoinStrategy.INDEXED_JOIN

    def test_large_cold_queue_uses_scan(self):
        evaluator, _layout, _cache = make_virtual_setup()
        assert (
            evaluator.choose_strategy(1_000, 10_000, bucket_resident=False)
            is JoinStrategy.SEQUENTIAL_SCAN
        )

    def test_resident_bucket_always_scans(self):
        evaluator, _layout, _cache = make_virtual_setup()
        assert (
            evaluator.choose_strategy(10, 10_000, bucket_resident=True)
            is JoinStrategy.SEQUENTIAL_SCAN
        )

    def test_force_overrides_choice(self):
        evaluator, _layout, _cache = make_virtual_setup()
        assert (
            evaluator.choose_strategy(10, 10_000, False, force=JoinStrategy.SEQUENTIAL_SCAN)
            is JoinStrategy.SEQUENTIAL_SCAN
        )

    def test_hybrid_disabled_always_scans(self):
        cost = CostModel.paper_defaults()
        layout = BucketPartitioner().partition_density(4)
        store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
        evaluator = HybridJoinEvaluator(cost, BucketCacheManager(store), enable_hybrid=False)
        assert evaluator.choose_strategy(1, 10_000, False) is JoinStrategy.SEQUENTIAL_SCAN
        default = HybridJoinEvaluator(cost, BucketCacheManager(store))
        assert default.choose_strategy(1, 10_000, False) is JoinStrategy.SEQUENTIAL_SCAN

    def test_threshold_defaults_to_cost_model_breakeven(self):
        evaluator, _layout, _cache = make_virtual_setup()
        assert evaluator.threshold_fraction == pytest.approx(
            CostModel.paper_defaults().breakeven_fraction()
        )

    def test_explicit_threshold_respected(self):
        cost = CostModel.paper_defaults()
        layout = BucketPartitioner().partition_density(4)
        store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
        evaluator = HybridJoinEvaluator(
            cost, BucketCacheManager(store), enable_hybrid=True, threshold_fraction=0.5
        )
        assert evaluator.choose_strategy(4_000, 10_000, False) is JoinStrategy.INDEXED_JOIN


class TestVirtualEvaluation:
    def test_scan_costs_tb_plus_tm_per_object(self):
        evaluator, layout, _cache = make_virtual_setup()
        result = evaluator.evaluate(layout[0], entries_for([600, 500]))
        assert result.strategy is JoinStrategy.SEQUENTIAL_SCAN
        assert result.io_cost_ms == pytest.approx(1200.0)
        assert result.match_cost_ms == pytest.approx(1100 * 0.13)
        assert result.objects_processed == 1100
        assert not result.cache_hit
        assert result.match_count > 0

    def test_count_only_scan_estimates_matches_without_pairs(self):
        evaluator, layout, _cache = make_virtual_setup()
        result = evaluator.evaluate(layout[0], entries_for([600, 500]))
        assert result.matches == ()
        assert result.match_count == round(0.85 * 1100)

    def test_second_scan_of_same_bucket_hits_cache(self):
        evaluator, layout, _cache = make_virtual_setup()
        evaluator.evaluate(layout[0], entries_for([600]))
        result = evaluator.evaluate(layout[0], entries_for([700], start_query=5))
        assert result.cache_hit
        assert result.io_cost_ms == 0.0

    def test_unshared_scan_bypasses_cache(self):
        evaluator, layout, cache = make_virtual_setup()
        first = evaluator.evaluate(layout[1], entries_for([900]), share_io=False)
        assert first.io_cost_ms == pytest.approx(1200.0)
        assert not cache.resident(1)
        second = evaluator.evaluate(layout[1], entries_for([900]), share_io=False)
        assert second.io_cost_ms == pytest.approx(1200.0)

    def test_indexed_evaluation_costs_probe_per_object(self):
        evaluator, layout, _cache = make_virtual_setup()
        result = evaluator.evaluate(layout[2], entries_for([50]))
        assert result.strategy is JoinStrategy.INDEXED_JOIN
        assert result.cost_ms == pytest.approx(50 * 4.2)
        assert result.match_cost_ms == 0.0

    def test_empty_entries_cost_nothing(self):
        evaluator, layout, _cache = make_virtual_setup()
        result = evaluator.evaluate(layout[0], [])
        assert result.cost_ms == 0.0
        assert result.objects_processed == 0

    def test_statistics_track_strategy_mix(self):
        evaluator, layout, _cache = make_virtual_setup()
        scan = evaluator.evaluate(layout[0], entries_for([600]))
        probe = evaluator.evaluate(layout[3], entries_for([10], start_query=9))
        assert [scan.strategy, probe.strategy] == [
            JoinStrategy.SEQUENTIAL_SCAN,
            JoinStrategy.INDEXED_JOIN,
        ]

    def test_validation(self):
        cost = CostModel.paper_defaults()
        layout = BucketPartitioner().partition_density(2)
        store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
        cache = BucketCacheManager(store)
        with pytest.raises(ValueError):
            HybridJoinEvaluator(cost, cache, threshold_fraction=-0.1)
        with pytest.raises(ValueError):
            HybridJoinEvaluator(cost, cache, match_probability=1.5)


class TestFullFidelityJoin:
    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        generator = SkyGenerator(SkyGeneratorConfig(object_count=500, seed=21))
        base = generator.generate("sdss")
        companion = generator.derive_companion(
            base, "twomass", completeness=0.9, extra_fraction=0.05
        )
        path = tmp_path_factory.mktemp("full-fidelity") / "sdss.lrbs"
        manifest = ingest_catalog(path, base, objects_per_bucket=100, bucket_megabytes=4.0)
        incoming = to_crossmatch_objects(list(companion)[:80], match_radius_arcsec=3.0)
        return manifest.path, base, incoming

    def test_merge_join_matches_reference_crossmatch(self, setup):
        path, base, incoming = setup
        disk = calibrated_disk_for_bucket_read(4.0, 0.2)
        cost = SMALL_BUCKET_COST
        query = CrossMatchQuery(query_id=1, objects=tuple(incoming))
        matched_pairs = set()
        with open_disk_store(path, disk) as store:
            cache = BucketCacheManager(store, capacity=8)
            evaluator = HybridJoinEvaluator(cost, cache)
            # Build the per-bucket workload and evaluate every touched bucket
            # with a forced sequential scan (full-fidelity path).
            assignments = QueryPreProcessor(store.layout).assign(query)
            for bucket_index, objects in assignments.items():
                entries = [WorkloadEntry(1, len(objects), 0.0, tuple(objects))]
                result = evaluator.evaluate(
                    store.layout[bucket_index],
                    entries,
                    force_strategy=JoinStrategy.SEQUENTIAL_SCAN,
                )
                for pair in result.matches:
                    matched_pairs.add(
                        (pair.workload_object.object_id, pair.catalog_object.object_id)
                    )
        reference = {
            (incoming_obj.object_id, catalog_obj.object_id)
            for incoming_obj, catalog_obj in crossmatch_catalogs(incoming, base)
        }
        assert matched_pairs == reference
        assert matched_pairs  # the companion survey guarantees real matches

    def test_shared_scan_splits_pairs_by_query(self, setup):
        """Two queries batched into one service each get their own pairs."""
        path, base, incoming = setup
        disk = calibrated_disk_for_bucket_read(4.0, 0.2)
        cost = SMALL_BUCKET_COST
        queries = [
            CrossMatchQuery(query_id=1, objects=tuple(incoming)),
            CrossMatchQuery(query_id=2, objects=tuple(incoming[:40])),
        ]
        found = set()
        with open_disk_store(path, disk) as store:
            evaluator = HybridJoinEvaluator(cost, BucketCacheManager(store, capacity=8))
            preprocessor = QueryPreProcessor(store.layout)
            assignments = [preprocessor.assign(query) for query in queries]
            for bucket_index in sorted(set(assignments[0]) | set(assignments[1])):
                entries = []
                for query, assigned in zip(queries, assignments):
                    objs = assigned.get(bucket_index)
                    if objs:
                        entries.append(WorkloadEntry(query.query_id, len(objs), 0.0, tuple(objs)))
                result = evaluator.evaluate(store.layout[bucket_index], entries)
                # Every entry is joined: the service counts its pairs, zero included.
                assert result.match_count == len(result.matches)
                found.update(
                    (pair.query_id, pair.workload_object.object_id, pair.catalog_object.object_id)
                    for pair in result.matches
                )
        expected = {
            (query.query_id, obj.object_id, row.object_id)
            for query in queries
            for obj, row in crossmatch_catalogs(query.objects, base)
        }
        assert found == expected
        assert {query_id for query_id, _, _ in found} == {1, 2}

    @staticmethod
    def _matched_bucket(store, incoming):
        """The first bucket the incoming objects really match in, and the
        objects the pre-processor assigns to it."""
        evaluator = HybridJoinEvaluator(SMALL_BUCKET_COST, BucketCacheManager(store, capacity=8))
        query = CrossMatchQuery(query_id=1, objects=tuple(incoming))
        for bucket_index, objects in QueryPreProcessor(store.layout).assign(query).items():
            entries = [WorkloadEntry(1, len(objects), 0.0, tuple(objects))]
            if evaluator.evaluate(store.layout[bucket_index], entries).matches:
                return bucket_index, tuple(objects)
        raise AssertionError("the companion survey guarantees real matches")

    def _evaluate_on_matched_bucket(self, setup, entries_for_bucket):
        path, _base, incoming = setup
        disk = calibrated_disk_for_bucket_read(4.0, 0.2)
        with open_disk_store(path, disk) as store:
            bucket_index, objects = self._matched_bucket(store, incoming)
            evaluator = HybridJoinEvaluator(
                SMALL_BUCKET_COST, BucketCacheManager(store, capacity=8)
            )
            return evaluator.evaluate(
                store.layout[bucket_index],
                entries_for_bucket(objects),
                force_strategy=JoinStrategy.SEQUENTIAL_SCAN,
            )

    def test_explicit_entries_without_pairs_count_zero(self, setup):
        """A joined entry counts the pairs it found, zero included: objects
        moved a degree off their true position match nothing, and nothing
        is credited for them."""

        def displaced(objects):
            moved = tuple(
                dataclasses.replace(obj, dec=obj.dec - 1.0 if obj.dec > 0 else obj.dec + 1.0)
                for obj in objects
            )
            return [WorkloadEntry(1, len(moved), 0.0, moved)]

        result = self._evaluate_on_matched_bucket(setup, displaced)
        assert result.objects_processed > 0
        assert result.matches == ()
        assert result.match_count == 0

    def test_footprint_only_entries_on_a_materialised_bucket_estimate(self, setup):
        """An entry without objects has nothing to join, even over a ``.lrbs``
        bucket: it is estimated, as on a count-only store."""
        result = self._evaluate_on_matched_bucket(
            setup, lambda objects: [WorkloadEntry(5, 40, 0.0)]
        )
        assert result.matches == ()
        assert result.match_count == round(0.85 * 40)

    def test_mixed_queue_counts_pairs_plus_the_footprint_estimate(self, setup):
        result = self._evaluate_on_matched_bucket(
            setup,
            lambda objects: [
                WorkloadEntry(1, len(objects), 0.0, objects),
                WorkloadEntry(5, 40, 0.0),
            ],
        )
        assert len(result.matches) > 0
        assert {pair.query_id for pair in result.matches} == {1}
        assert result.match_count == len(result.matches) + round(0.85 * 40)

    def test_indexed_service_estimates_without_reading_the_bucket(self, setup):
        """The index path prices probes and estimates matches: it never
        reads a bucket, so it returns no pairs even over a ``.lrbs`` store."""
        path, _base, incoming = setup
        disk = calibrated_disk_for_bucket_read(4.0, 0.2)
        cost = SMALL_BUCKET_COST
        query = CrossMatchQuery(query_id=3, objects=tuple(incoming))
        with open_disk_store(path, disk) as store:
            evaluator = HybridJoinEvaluator(cost, BucketCacheManager(store, capacity=8))
            bucket_index, objects = next(
                iter(QueryPreProcessor(store.layout).assign(query).items())
            )
            entries = [WorkloadEntry(3, len(objects), 0.0, tuple(objects))]
            result = evaluator.evaluate(
                store.layout[bucket_index], entries, force_strategy=JoinStrategy.INDEXED_JOIN
            )
            assert store.reads == 0 and store.page_reads == 0
        assert result.strategy is JoinStrategy.INDEXED_JOIN
        assert result.matches == ()
        assert result.cost_ms == pytest.approx(cost.index_cost_ms(len(objects)))
        assert result.match_count == round(0.85 * len(objects))
