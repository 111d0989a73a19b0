"""Integration tests spanning the whole stack.

These tests exercise the public API the way the examples and the benchmark
harness do: generate a sky, ingest it into a store, derive a workload, schedule it
with LifeRaft and the baselines, and check the paper's qualitative claims
end to end (plus conservation invariants the unit tests cannot see).
"""

import pytest

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.ingest import ingest_catalog
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.query import CrossMatchQuery
from repro.workload.stats import TraceStatistics
from tests.core.join_oracle import (
    SMALL_BUCKET_COST,
    crossmatch_catalogs,
    to_crossmatch_objects,
)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(TraceConfig(query_count=150, bucket_count=256, seed=23)).generate()


@pytest.fixture(scope="module")
def simulator():
    return Simulator(SimulationConfig(bucket_count=256))


class TestSchedulingClaims:
    def test_data_driven_scheduling_beats_noshare_on_throughput(self, trace, simulator):
        queries = trace.with_saturation(1.0).queries
        greedy = simulator.execute(queries, RunSpec(alpha=0.0))
        noshare = simulator.execute(queries, RunSpec(policy="noshare"))
        assert greedy.throughput_qps > 1.5 * noshare.throughput_qps
        assert greedy.avg_response_time_s < noshare.avg_response_time_s

    def test_round_robin_tracks_pure_aging(self, trace, simulator):
        queries = trace.with_saturation(1.0).queries
        aged = simulator.execute(queries, RunSpec(alpha=1.0))
        round_robin = simulator.execute(queries, RunSpec(policy="round_robin"))
        assert round_robin.throughput_qps == pytest.approx(aged.throughput_qps, rel=0.2)

    def test_contention_scheduling_improves_cache_hit_rate(self, trace, simulator):
        queries = trace.with_saturation(1.0).queries
        greedy = simulator.execute(queries, RunSpec(alpha=0.0))
        aged = simulator.execute(queries, RunSpec(alpha=1.0))
        assert greedy.cache_hit_rate > aged.cache_hit_rate

    def test_every_policy_conserves_queries(self, trace, simulator):
        queries = trace.with_saturation(0.5).queries
        for policy in ("liferaft", "noshare", "round_robin", "least_sharable_first"):
            result = simulator.execute(queries, RunSpec(policy=policy, alpha=0.25))
            assert result.completed_queries == len(queries)
            assert result.response_stats.count == len(queries)
            assert result.response_stats.minimum_s >= 0.0

    def test_workload_statistics_match_engine_accounting(self, trace, simulator):
        stats = TraceStatistics(trace.queries)
        result = simulator.execute(trace.with_saturation(2.0).queries, RunSpec(alpha=0.0))
        # Every cross-match object submitted must have been processed by some
        # bucket service exactly once (shared services process whole queues).
        processed = result.strategy_counts["sequential_scan"] + result.strategy_counts[
            "indexed_join"
        ]
        assert processed == result.bucket_services
        assert result.bucket_services <= stats.total_objects


class TestReplay:
    def test_execute_drains_everything(self, trace):
        simulator = Simulator(SimulationConfig(bucket_count=256))
        result = simulator.execute(
            trace.with_saturation(5.0).queries[:40], RunSpec(alpha=0.25)
        )
        assert result.completed_queries == 40
        assert result.result_digest  # every run stamps a replayable digest

    def test_bare_engine_drains_an_arrival_schedule(self, trace):
        """Driving the online engine directly agrees with what the
        simulator wraps: submit in arrival order, drain, and every query
        completes (the pre-RunSpec replay loop, now inlined)."""
        config = SimulationConfig(bucket_count=256)
        simulator = Simulator(config)
        engine = simulator._build_engine(LifeRaftScheduler(SchedulerConfig(alpha=0.25)))
        queries = trace.with_saturation(5.0).queries[:40]
        for query in sorted(queries, key=lambda q: (q.arrival_time_s, q.query_id)):
            engine.submit(query, now_ms=query.arrival_time_s * 1000.0)
        while engine.process_next() is not None:
            pass
        report = engine.report()
        assert report.completed_queries == 40
        assert not engine.has_pending_work()


class TestFullFidelityPipeline:
    def test_cross_survey_workload_through_real_archive(self, tmp_path):
        generator = SkyGenerator(SkyGeneratorConfig(object_count=500, cluster_count=4, seed=41))
        sdss = generator.generate("sdss")
        twomass = generator.derive_companion(sdss, "twomass", completeness=0.9)
        manifest = ingest_catalog(
            tmp_path / "sdss.lrbs", sdss, objects_per_bucket=100, bucket_megabytes=4.0
        )
        disk = calibrated_disk_for_bucket_read(4.0, 0.2)
        cost = SMALL_BUCKET_COST
        # Three concurrent queries shipping different slices of 2MASS.
        rows = list(twomass)
        queries = [
            CrossMatchQuery(query_id=query_id, objects=tuple(to_crossmatch_objects(chunk)))
            for query_id, chunk in enumerate((rows[0:80], rows[40:120], rows[100:180]))
        ]
        with open_disk_store(manifest.path, disk) as store:
            # No index: every service scans its bucket's column block, so
            # every match is a real pair rather than an estimate.
            engine = LifeRaftEngine(
                store.layout,
                store,
                scheduler=LifeRaftScheduler(SchedulerConfig(alpha=0.25, cost=cost)),
                config=EngineConfig(cost=cost, cache_buckets=4),
            )
            for query in queries:
                engine.submit(query, now_ms=0.0)
            while engine.process_next() is not None:
                pass
            report = engine.report()
            found = sorted(
                (pair.query_id, pair.workload_object.object_id, pair.catalog_object.object_id)
                for batch in engine.batches
                for pair in batch.join.matches
            )
        assert report.completed_queries == 3
        expected = sorted(
            (query.query_id, obj.object_id, row.object_id)
            for query in queries
            for obj, row in crossmatch_catalogs(query.objects, sdss)
        )
        assert found == expected
        assert found  # the companion survey guarantees real matches
        # Overlapping slices hit the same buckets, so batching shares reads.
        assert report.bucket_services < sum(
            len(engine.preprocessor.assign(query)) for query in queries
        )
