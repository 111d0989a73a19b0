"""Tests for the synthetic trace generator (skew, locality, reproducibility)."""

from collections import Counter

import pytest

from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.stats import TraceStatistics


def small_config(**overrides):
    defaults = dict(query_count=250, bucket_count=256, seed=99)
    defaults.update(overrides)
    return TraceConfig(**defaults)


class TestConfigValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceConfig(query_count=0)
        with pytest.raises(ValueError):
            TraceConfig(bucket_count=0)

    def test_span_bounds(self):
        with pytest.raises(ValueError):
            TraceConfig(min_span=0)
        with pytest.raises(ValueError):
            TraceConfig(min_span=10, max_span=5)
        with pytest.raises(ValueError):
            TraceConfig(bucket_count=16, max_span=64)

    def test_locality_and_zipf_bounds(self):
        with pytest.raises(ValueError):
            TraceConfig(temporal_locality=1.5)
        with pytest.raises(ValueError):
            TraceConfig(zipf_exponent=0.0)

    def test_locality_endpoints_are_valid(self):
        assert TraceConfig(temporal_locality=0.0).temporal_locality == 0.0
        assert TraceConfig(temporal_locality=1.0).temporal_locality == 1.0
        with pytest.raises(ValueError):
            TraceConfig(temporal_locality=-0.1)

    def test_degenerate_span_is_valid(self):
        config = TraceConfig(min_span=3, max_span=3)
        assert config.min_span == config.max_span == 3
        trace = TraceGenerator(
            TraceConfig(query_count=30, bucket_count=64, seed=2, min_span=1, max_span=1)
        ).generate(attach_arrivals=False)
        assert all(len(q.bucket_footprint) == 1 for q in trace)

    def test_span_may_fill_the_whole_sky(self):
        config = TraceConfig(bucket_count=16, max_span=16)
        assert config.max_span == 16

    def test_objects_per_query_median_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceConfig(objects_per_query_bucket_median=0)
        with pytest.raises(ValueError):
            TraceConfig(objects_per_query_bucket_median=-5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(query_count=-1)
        with pytest.raises(ValueError):
            TraceConfig(bucket_count=-16)


class TestGeneration:
    def test_trace_size_and_query_ids(self):
        trace = TraceGenerator(small_config()).generate(attach_arrivals=False)
        assert len(trace) == 250
        assert [q.query_id for q in trace] == list(range(250))
        assert all(not q.objects for q in trace)

    def test_footprints_respect_bucket_count(self):
        config = small_config()
        trace = TraceGenerator(config).generate(attach_arrivals=False)
        for query in trace:
            assert all(0 <= bucket < config.bucket_count for bucket in query.bucket_footprint)
            assert all(count >= 1 for count in query.bucket_footprint.values())
            assert len(query.bucket_footprint) <= config.max_span

    def test_generation_is_deterministic(self):
        a = TraceGenerator(small_config()).generate(attach_arrivals=False)
        b = TraceGenerator(small_config()).generate(attach_arrivals=False)
        assert [q.bucket_footprint for q in a] == [q.bucket_footprint for q in b]

    def test_different_seeds_differ(self):
        a = TraceGenerator(small_config(seed=1)).generate(attach_arrivals=False)
        b = TraceGenerator(small_config(seed=2)).generate(attach_arrivals=False)
        assert [q.bucket_footprint for q in a] != [q.bucket_footprint for q in b]

    def test_arrival_times_attached_and_monotone(self):
        trace = TraceGenerator(small_config()).generate(attach_arrivals=True)
        times = [q.arrival_time_s for q in trace]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_with_saturation_rescales_arrivals(self):
        trace = TraceGenerator(small_config()).generate()
        slow = trace.with_saturation(0.1)
        fast = trace.with_saturation(10.0)
        assert slow.queries[-1].arrival_time_s > fast.queries[-1].arrival_time_s
        # The underlying footprints are untouched.
        assert slow.queries[0].bucket_footprint == fast.queries[0].bucket_footprint


class TestWorkloadShape:
    """The generated trace must reproduce the paper's published skew."""

    @pytest.fixture(scope="class")
    def stats(self):
        trace = TraceGenerator(TraceConfig(query_count=800, bucket_count=1024, seed=5)).generate(
            attach_arrivals=False
        )
        return TraceStatistics(trace.queries)

    def test_top_ten_buckets_touch_a_majority_of_queries(self, stats):
        top10 = [bucket for bucket, _count in stats.top_buckets_by_reuse(10)]
        fraction = stats.fraction_of_queries_touching(top10)
        # Paper: ~61%.  Accept a generous band around it.
        assert 0.4 <= fraction <= 0.9

    def test_two_percent_of_buckets_carry_about_half_the_workload(self, stats):
        share = stats.fraction_of_workload_in_top_fraction(0.02)
        # Paper: ~50%.
        assert 0.3 <= share <= 0.7

    def test_workload_has_a_long_tail(self, stats):
        # At least half of the touched buckets individually carry <1% of work.
        workload = Counter()
        for query in stats.queries:
            workload.update(query.bucket_footprint)
        total = sum(workload.values())
        light = sum(1 for count in workload.values() if count / total < 0.01)
        assert light >= 0.5 * len(workload)

    def test_total_objects_are_data_intensive(self, stats):
        # Long-running cross-matches: hundreds of objects per query on average.
        assert stats.total_objects / stats.query_count > 200
