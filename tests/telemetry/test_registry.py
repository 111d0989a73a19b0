"""The metrics registry and its merge algebra.

The merge contract is what lets snapshots ride the ``WorkerResult`` IPC
seam and fold together at the coordinator regardless of which worker
finishes first: counters and histogram buckets add, gauges take the
maximum, so (for the integer-valued metrics the engines record) the
merged snapshot is independent of input order.  The hypothesis
properties below pin down commutativity and associativity over
registries built from random operation sequences, and the JSON codec
round-trips bit-exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.registry import (
    REAL_DOMAIN,
    SNAPSHOT_VERSION,
    VIRTUAL_DOMAIN,
    MetricsRegistry,
    empty_snapshot,
    filter_domain,
    merge_snapshots,
    metric_key,
    metric_value,
    snapshot_from_json,
    snapshot_to_json,
)
from tests.telemetry.helpers import sum_metric

HIST_BOUNDS = (1, 5, 25)

#: The metric universe the property tests draw operations from: one
#: unlabelled counter, two labelled siblings, a gauge and a histogram.
def _apply_op(registry: MetricsRegistry, op, amount: int) -> None:
    if op == 0:
        registry.counter("c").inc(amount)
    elif op == 1:
        registry.counter("c.labelled", labels={"k": "a"}).inc(amount)
    elif op == 2:
        registry.counter("c.labelled", labels={"k": "b"}).inc(amount)
    elif op == 3:
        registry.gauge("g").mark(amount)
    else:
        registry.histogram("h", HIST_BOUNDS).observe(amount)


def snapshot_from_ops(ops) -> dict:
    registry = MetricsRegistry()
    for op, amount in ops:
        _apply_op(registry, op, amount)
    return registry.snapshot()


ops_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=100)),
    max_size=30,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("engine.services") == "engine.services"

    def test_labels_sorted_into_identity(self):
        key = metric_key("io.requests", {"kind": "read", "tier": "disk"})
        assert key == metric_key("io.requests", {"tier": "disk", "kind": "read"})
        assert key == "io.requests|kind=read|tier=disk"


class TestMetricTypes:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_mark_is_high_water(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.mark(7)
        gauge.mark(3)
        assert gauge.value == 7
        gauge.set(2)
        assert gauge.value == 2

    def test_histogram_bins_with_overflow_bucket(self):
        hist = MetricsRegistry().histogram("h", HIST_BOUNDS)
        for value in (0, 1, 2, 30):
            hist.observe(value)
        # len(counts) == len(bounds) + 1; 30 lands in the overflow bucket.
        assert hist.counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.sum == 33

    def test_histogram_rejects_bad_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket bound"):
            registry.histogram("h", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h2", (1, 1, 2))


class TestRegistryIdentity:
    def test_get_or_create_returns_live_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h", HIST_BOUNDS) is registry.histogram("h", HIST_BOUNDS)

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("m", HIST_BOUNDS)

    def test_domain_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("m", domain=VIRTUAL_DOMAIN)
        with pytest.raises(ValueError, match="domain"):
            registry.counter("m", domain=REAL_DOMAIN)

    def test_histogram_bounds_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("h", HIST_BOUNDS)
        with pytest.raises(ValueError, match="different bounds"):
            registry.histogram("h", (1, 2, 3))

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry domain"):
            MetricsRegistry().counter("c", domain="imaginary")


class TestSnapshotAndRestore:
    def test_snapshot_filters_by_domain(self):
        registry = MetricsRegistry()
        registry.counter("v").inc()
        registry.counter("r", domain=REAL_DOMAIN).inc()
        assert set(registry.snapshot()["metrics"]) == {"v", "r"}
        assert set(registry.snapshot(VIRTUAL_DOMAIN)["metrics"]) == {"v"}
        assert set(registry.snapshot(REAL_DOMAIN)["metrics"]) == {"r"}

    def test_restore_none_resets_but_keeps_handles_live(self):
        """A pre-telemetry checkpoint (``None``) resets counts in place,
        so hot-path handles held by a ServiceLoop survive the recovery."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", HIST_BOUNDS)
        counter.inc(9)
        hist.observe(3)
        registry.restore(None)
        assert counter.value == 0
        assert hist.counts == [0] * (len(HIST_BOUNDS) + 1)
        assert hist.count == 0 and hist.sum == 0
        counter.inc(2)
        assert metric_value(registry.snapshot(), "c") == 2

    def test_restore_snapshot_mutates_in_place_and_adds_missing(self):
        source = MetricsRegistry()
        source.counter("c").inc(5)
        source.gauge("g").mark(11)
        snapshot = source.snapshot()

        target = MetricsRegistry()
        handle = target.counter("c")
        handle.inc(99)
        target.counter("stale").inc(3)
        target.restore(snapshot)
        # Existing handle now reads the restored value; metrics absent
        # from the checkpoint reset; new ones appear.
        assert handle.value == 5
        assert metric_value(target.snapshot(), "stale") == 0
        assert metric_value(target.snapshot(), "g") == 11

    def test_restore_then_replay_reproduces_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(4)
        checkpoint = registry.snapshot()
        counter.inc(10)  # work after the checkpoint, lost in the crash
        registry.restore(checkpoint)
        counter.inc(10)  # deterministic replay re-counts it
        final = registry.snapshot()
        registry.restore(checkpoint)
        counter.inc(10)
        assert registry.snapshot() == final


class TestMergeAlgebra:
    def test_empty_snapshot_is_identity(self):
        snapshot = snapshot_from_ops([(0, 3), (4, 7)])
        assert merge_snapshots([snapshot, empty_snapshot()]) == snapshot
        assert merge_snapshots([empty_snapshot(), snapshot]) == snapshot

    def test_none_entries_are_skipped(self):
        snapshot = snapshot_from_ops([(1, 2)])
        assert merge_snapshots([None, snapshot, None]) == snapshot
        assert merge_snapshots([None, None]) == empty_snapshot()

    def test_counters_add_gauges_max_buckets_add(self):
        a = snapshot_from_ops([(0, 3), (3, 10), (4, 2)])
        b = snapshot_from_ops([(0, 4), (3, 6), (4, 30)])
        merged = merge_snapshots([a, b])
        assert metric_value(merged, "c") == 7
        assert metric_value(merged, "g") == 10
        hist = merged["metrics"]["h"]
        # 2 lands in the (1, 5] bucket, 30 in the overflow bucket.
        assert hist["counts"] == [0, 1, 0, 1]
        assert hist["count"] == 2 and hist["sum"] == 32

    def test_type_mismatch_refuses_to_merge(self):
        a = MetricsRegistry()
        a.counter("m").inc()
        b = MetricsRegistry()
        b.gauge("m").mark(1)
        with pytest.raises(ValueError, match="cannot combine"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_histogram_bound_mismatch_refuses_to_merge(self):
        a = MetricsRegistry()
        a.histogram("h", (1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", (1, 3)).observe(1)
        with pytest.raises(ValueError, match="bounds differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    @settings(max_examples=60)
    @given(
        ops=st.lists(ops_strategy, max_size=5),
        permutation=st.randoms(use_true_random=False),
    )
    def test_merge_is_order_insensitive(self, ops, permutation):
        snapshots = [snapshot_from_ops(worker_ops) for worker_ops in ops]
        shuffled = list(snapshots)
        permutation.shuffle(shuffled)
        assert merge_snapshots(shuffled) == merge_snapshots(snapshots)

    @settings(max_examples=60)
    @given(a=ops_strategy, b=ops_strategy, c=ops_strategy)
    def test_merge_is_associative(self, a, b, c):
        sa, sb, sc = (snapshot_from_ops(ops) for ops in (a, b, c))
        left = merge_snapshots([merge_snapshots([sa, sb]), sc])
        right = merge_snapshots([sa, merge_snapshots([sb, sc])])
        assert left == right


class TestJsonCodec:
    @settings(max_examples=60)
    @given(ops=ops_strategy)
    def test_round_trip_is_exact(self, ops):
        snapshot = snapshot_from_ops(ops)
        assert snapshot_from_json(snapshot_to_json(snapshot)) == snapshot

    def test_encoding_is_deterministic(self):
        # Same logical content built in different insertion orders
        # serializes identically (sorted keys).
        a = snapshot_from_ops([(0, 1), (3, 2)])
        b = snapshot_from_ops([(3, 2), (0, 1)])
        assert snapshot_to_json(a) == snapshot_to_json(b)

    def test_rejects_non_snapshot(self):
        with pytest.raises(ValueError, match="missing 'metrics'"):
            snapshot_from_json("{}")
        with pytest.raises(ValueError, match="missing 'metrics'"):
            snapshot_from_json('"just a string"')

    def test_rejects_unknown_version(self):
        bad = {"version": SNAPSHOT_VERSION + 1, "metrics": {}}
        with pytest.raises(ValueError, match="unsupported metrics snapshot version"):
            snapshot_from_json(snapshot_to_json(bad))

    def test_rejects_malformed_entry(self):
        bad = {
            "version": SNAPSHOT_VERSION,
            "metrics": {"m": {"type": "thermometer", "name": "m", "value": 1}},
        }
        with pytest.raises(ValueError, match="unknown type"):
            snapshot_from_json(snapshot_to_json(bad))


def _series_snapshot(samples, name="s", window_ms=100.0, labels=None):
    registry = MetricsRegistry()
    series = registry.series(name, window_ms, labels=labels)
    for index, value in samples:
        series.record(index, value)
    return registry.snapshot()


class TestSeries:
    def test_record_enforces_ascending_indices(self):
        series = MetricsRegistry().series("s", 100.0)
        series.record(0, 3)
        series.record(2, 5)  # gaps are fine: windows with no samples stay absent
        assert series.sample_count == 2
        with pytest.raises(ValueError, match="not\\s+after the last recorded index"):
            series.record(2, 7)
        with pytest.raises(ValueError, match="not\\s+after the last recorded index"):
            series.record(1, 7)

    def test_window_ms_must_be_positive(self):
        with pytest.raises(ValueError, match="positive window_ms"):
            MetricsRegistry().series("s", 0.0)

    def test_get_or_create_pins_window_ms(self):
        registry = MetricsRegistry()
        series = registry.series("s", 100.0)
        assert registry.series("s", 100.0) is series
        with pytest.raises(ValueError, match="different window_ms"):
            registry.series("s", 50.0)

    def test_series_counts_as_sample_count_in_lookups(self):
        snapshot = _series_snapshot([(0, 10), (1, 20), (2, 30)])
        assert metric_value(snapshot, "s") == 3
        assert sum_metric(snapshot, "s") == 3

    def test_round_trips_through_json(self):
        snapshot = _series_snapshot([(0, 10), (3, 2.5)])
        assert snapshot_from_json(snapshot_to_json(snapshot)) == snapshot

    def test_restore_rewinds_the_sampling_cursor(self):
        """The crash-recovery path: a restored series resumes recording
        exactly after the checkpointed barrier."""
        registry = MetricsRegistry()
        series = registry.series("s", 100.0)
        series.record(0, 1)
        checkpoint = registry.snapshot()
        series.record(1, 2)  # lost in the crash
        registry.restore(checkpoint)
        assert series.sample_count == 1
        series.record(1, 2)  # deterministic replay re-records it
        assert series.samples == [[0, 1], [1, 2]]


class TestSeriesMergeAlgebra:
    """Satellite fix: windowed samples union by barrier index instead of
    collapsing to a global max like end-of-run gauges."""

    def test_disjoint_shards_concatenate_by_window_index(self):
        a = _series_snapshot([(0, 10), (1, 20)], labels={"shard": "0"})
        b = _series_snapshot([(0, 7), (1, 90)], labels={"shard": "1"})
        merged = merge_snapshots([a, b])
        key_a = metric_key("s", {"shard": "0"})
        key_b = metric_key("s", {"shard": "1"})
        # Per-shard values survive verbatim — no cross-shard max.
        assert merged["metrics"][key_a]["samples"] == [[0, 10], [1, 20]]
        assert merged["metrics"][key_b]["samples"] == [[0, 7], [1, 90]]

    def test_same_key_unions_and_sorts_by_index(self):
        a = _series_snapshot([(0, 10), (2, 30)])
        b = _series_snapshot([(1, 20)])
        merged = merge_snapshots([a, b])
        assert merged["metrics"]["s"]["samples"] == [[0, 10], [1, 20], [2, 30]]

    def test_merge_is_order_insensitive(self):
        a = _series_snapshot([(0, 10), (2, 30)])
        b = _series_snapshot([(1, 20), (3, 40)])
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_equal_duplicate_windows_are_tolerated(self):
        """Recovery replay re-produces samples bit-identically, so the
        same (index, value) pair arriving twice is not a conflict."""
        a = _series_snapshot([(0, 10), (1, 20)])
        b = _series_snapshot([(1, 20), (2, 30)])
        merged = merge_snapshots([a, b])
        assert merged["metrics"]["s"]["samples"] == [[0, 10], [1, 20], [2, 30]]

    def test_conflicting_window_values_refuse_to_merge(self):
        a = _series_snapshot([(1, 20)])
        b = _series_snapshot([(1, 21)])
        with pytest.raises(ValueError, match="conflicting samples at window 1"):
            merge_snapshots([a, b])

    def test_window_ms_mismatch_refuses_to_merge(self):
        a = _series_snapshot([(0, 1)], window_ms=100.0)
        b = _series_snapshot([(0, 1)], window_ms=200.0)
        with pytest.raises(ValueError, match="window_ms differs"):
            merge_snapshots([a, b])

    def test_series_and_gauge_refuse_to_merge(self):
        a = _series_snapshot([(0, 1)])
        b = MetricsRegistry()
        b.gauge("s").mark(1)
        with pytest.raises(ValueError, match="cannot combine"):
            merge_snapshots([a, b.snapshot()])


class TestLookupHelpers:
    def test_metric_value_handles_absent_and_none(self):
        assert metric_value(None, "c") == 0
        assert metric_value(empty_snapshot(), "c") == 0
        snapshot = snapshot_from_ops([(4, 3), (4, 9)])
        assert metric_value(snapshot, "h") == 2  # histogram -> observation count

    def test_sum_metric_totals_label_combinations(self):
        snapshot = snapshot_from_ops([(1, 5), (2, 7)])
        assert sum_metric(snapshot, "c.labelled") == 12
        assert sum_metric(None, "c.labelled") == 0

    def test_filter_domain(self):
        registry = MetricsRegistry()
        registry.counter("v").inc()
        registry.counter("r", domain=REAL_DOMAIN).inc()
        snapshot = registry.snapshot()
        assert set(filter_domain(snapshot, VIRTUAL_DOMAIN)["metrics"]) == {"v"}
        assert set(filter_domain(snapshot, REAL_DOMAIN)["metrics"]) == {"r"}
        assert filter_domain(None, VIRTUAL_DOMAIN) == empty_snapshot()
        with pytest.raises(ValueError, match="unknown telemetry domain"):
            filter_domain(snapshot, "imaginary")
