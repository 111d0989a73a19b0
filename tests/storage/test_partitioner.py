"""Tests for equal-sized bucket partitioning along the HTM curve."""

import bisect
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.curve import HTMRange
from repro.experiments.common import build_simulator
from repro.storage import partitioner as partitioner_module
from repro.storage.bucket_store import BucketStore
from repro.storage.format import read_layout
from repro.storage.ingest import materialize_layout
from repro.storage.partitioner import BucketPartitioner, PartitionLayout

LEAF_LEVEL = 8
CURVE_START = 8 << (2 * LEAF_LEVEL)
CURVE_END = (16 << (2 * LEAF_LEVEL)) - 1


def layout_from_ranges(ranges, object_counts, leaf_level=LEAF_LEVEL):
    """A layout of explicit ``(low, high)`` ranges and object counts, 1 MB per bucket."""
    lows, highs = zip(*ranges)
    return PartitionLayout(lows, highs, object_counts, [1.0] * len(ranges), leaf_level)


def sorted_ids(draw_count=st.integers(min_value=1, max_value=400)):
    return draw_count.flatmap(
        lambda n: st.lists(
            st.integers(min_value=CURVE_START, max_value=CURVE_END), min_size=n, max_size=n
        ).map(sorted)
    )


class TestPartitionObjects:
    def test_bucket_counts_and_sizes(self):
        ids = sorted(range(CURVE_START, CURVE_START + 95))
        partitioner = BucketPartitioner(
            objects_per_bucket=10, bucket_megabytes=40.0, leaf_level=LEAF_LEVEL
        )
        layout = partitioner.partition_objects(ids)
        assert len(layout) == 10
        assert [b.object_count for b in layout][:-1] == [10] * 9
        assert layout[9].object_count == 5
        assert layout[0].megabytes == pytest.approx(40.0)
        assert layout[9].megabytes == pytest.approx(20.0)
        assert layout.total_objects() == 95

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            BucketPartitioner().partition_objects([])

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            BucketPartitioner(leaf_level=LEAF_LEVEL).partition_objects(
                [CURVE_START + 5, CURVE_START + 1]
            )

    @given(sorted_ids(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_layout_covers_curve_without_gaps(self, ids, per_bucket):
        partitioner = BucketPartitioner(
            objects_per_bucket=per_bucket, bucket_megabytes=40.0, leaf_level=LEAF_LEVEL
        )
        layout = partitioner.partition_objects(ids)
        assert layout[0].htm_range.low == CURVE_START
        assert layout[-1].htm_range.high == CURVE_END
        for a, b in zip(layout, list(layout)[1:]):
            assert b.htm_range.low == a.htm_range.high + 1
        assert layout.total_objects() == len(ids)

    @given(sorted_ids(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_every_object_maps_to_a_bucket_holding_it(self, ids, per_bucket):
        partitioner = BucketPartitioner(
            objects_per_bucket=per_bucket, bucket_megabytes=40.0, leaf_level=LEAF_LEVEL
        )
        layout = partitioner.partition_objects(ids)
        # Reconstruct per-bucket counts by locating each object's bucket.
        counts = {b.index: 0 for b in layout}
        for htm_id in ids:
            (index,) = layout.bucket_indices_for_range(HTMRange(htm_id, htm_id))
            counts[index] += 1
        assert counts == {b.index: b.object_count for b in layout}

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            BucketPartitioner(objects_per_bucket=0)
        with pytest.raises(ValueError):
            BucketPartitioner(bucket_megabytes=0.0)


class TestPartitionDensity:
    def test_equal_width_by_default(self):
        partitioner = BucketPartitioner(objects_per_bucket=100, leaf_level=LEAF_LEVEL)
        layout = partitioner.partition_density(bucket_count=16)
        widths = [len(b.htm_range) for b in layout]
        assert max(widths) - min(widths) <= 1
        assert layout.total_objects() == 16 * 100

    def test_denser_regions_get_narrower_buckets(self):
        partitioner = BucketPartitioner(objects_per_bucket=100, leaf_level=LEAF_LEVEL)
        densities = [4.0] * 4 + [1.0] * 4
        layout = partitioner.partition_density(bucket_count=8, densities=densities)
        dense_width = len(layout[0].htm_range)
        sparse_width = len(layout[7].htm_range)
        assert dense_width < sparse_width
        assert layout[-1].htm_range.high == CURVE_END

    def test_density_validation(self):
        partitioner = BucketPartitioner()
        with pytest.raises(ValueError):
            partitioner.partition_density(0)
        with pytest.raises(ValueError):
            partitioner.partition_density(4, densities=[1.0, 2.0])
        with pytest.raises(ValueError):
            partitioner.partition_density(2, densities=[1.0, -1.0])


class TestPartitionLayout:
    def _layout(self):
        return layout_from_ranges(
            [(CURVE_START, CURVE_START + 99), (CURVE_START + 100, CURVE_END)],
            [50, 70],
            leaf_level=LEAF_LEVEL,
        )

    def test_lookup_by_htm_id(self):
        layout = self._layout()

        def lookup(htm_id):
            return list(layout.bucket_indices_for_range(HTMRange(htm_id, htm_id)))

        assert lookup(CURVE_START + 3) == [0]
        assert lookup(CURVE_START + 99) == [0]
        assert lookup(CURVE_START + 100) == [1]
        assert lookup(CURVE_END) == [1]
        assert lookup(CURVE_START - 1) == []

    def test_buckets_for_range(self):
        layout = self._layout()
        spanning = layout.buckets_for_range(HTMRange(CURVE_START + 90, CURVE_START + 110))
        assert [b.index for b in spanning] == [0, 1]
        single = layout.buckets_for_range(HTMRange(CURVE_START + 200, CURVE_START + 300))
        assert [b.index for b in single] == [1]

    def test_totals_and_sizes(self):
        layout = self._layout()
        assert len(layout) == 2
        assert layout.total_objects() == 120
        assert sum(layout.megabytes) > 0

    def test_layout_validation(self):
        whole = ([CURVE_START], [CURVE_END], [10], [1.0])
        PartitionLayout(*whole, leaf_level=LEAF_LEVEL)
        with pytest.raises(ValueError, match="at least one bucket"):
            PartitionLayout([], [], [], [], leaf_level=LEAF_LEVEL)
        # A spec-built layout could skip an index; columns can only disagree in length.
        with pytest.raises(ValueError, match="one entry per bucket"):
            PartitionLayout(*whole[:3], [1.0, 1.0], leaf_level=LEAF_LEVEL)
        with pytest.raises(ValueError, match="ordered along the HTM curve"):
            layout_from_ranges([(9, 9), (5, 5)], [1, 1])
        with pytest.raises(ValueError, match=r"bucket 1 has an empty HTM range \[9, 8\]"):
            layout_from_ranges([(5, 6), (9, 8)], [1, 1])

    def test_overlapping_buckets_rejected(self):
        """Buckets are disjoint (§3.1); touching and gapped buckets are fine."""
        start = CURVE_START
        layout_from_ranges([(start, start + 5), (start + 6, start + 9)], [1, 1])
        layout_from_ranges([(start, start + 5), (start + 8, start + 9)], [1, 1])
        # Bucket 0 covers start + 6, which a lookup would give to bucket 1 only.
        with pytest.raises(ValueError, match="buckets 0 and 1 overlap"):
            layout_from_ranges([(start, start + 10), (start + 5, start + 12)], [1, 1])
        # Equal lows: a lookup of start + 7 would find no bucket at all.
        with pytest.raises(ValueError, match="buckets 0 and 1 overlap"):
            layout_from_ranges([(start, start + 10), (start, start + 3)], [1, 1])
        # One shared ID is an overlap too.
        with pytest.raises(ValueError, match="buckets 1 and 2 overlap"):
            layout_from_ranges(
                [(start, start + 1), (start + 2, start + 5), (start + 5, start + 9)], [1, 1, 1]
            )


#: ``BucketStore.generation`` of ``BucketPartitioner().partition_density(n)``,
#: recorded from the spec-per-bucket layout the columns replaced.
GENERATION_GOLDENS = {
    64: "f23b2b5f42272560",
    1_024: "70b74bc2876c4558",
    20_000: "e8d0677fd352c0b9",
}


def both_producers():
    partitioner = BucketPartitioner(objects_per_bucket=7, leaf_level=LEAF_LEVEL)
    ids = sorted(CURVE_START + (i * 7_919) % (CURVE_END - CURVE_START) for i in range(200))
    return [
        partitioner.partition_density(40, densities=[1.0 + i % 3 for i in range(40)]),
        partitioner.partition_objects(ids),
    ]


class TestColumnarLayout:
    @pytest.mark.parametrize("bucket_count", sorted(GENERATION_GOLDENS))
    def test_generation_digest_is_unchanged(self, bucket_count):
        layout = BucketPartitioner().partition_density(bucket_count)
        assert BucketStore(layout).generation == GENERATION_GOLDENS[bucket_count]

    def test_ingested_store_reads_back_the_simulator_layout(self, tmp_path):
        layout = build_simulator("small").layout
        materialize_layout(tmp_path / "site.lrbs", layout, rows_per_bucket=1)
        restored = read_layout(tmp_path / "site.lrbs")
        assert restored == layout and list(restored) == list(layout)

    @pytest.mark.parametrize("producer", [0, 1], ids=["density", "objects"])
    def test_pickle_round_trip(self, producer):
        layout = both_producers()[producer]
        restored = pickle.loads(pickle.dumps(layout))
        assert restored == layout and hash(restored) == hash(layout)
        assert list(restored) == list(layout)

    def test_unpickling_builds_no_spec_and_an_index_builds_one(self, monkeypatch):
        built = []

        class CountingSpec(partitioner_module.BucketSpec):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        payload = pickle.dumps(BucketPartitioner().partition_density(20_000))
        monkeypatch.setattr(partitioner_module, "BucketSpec", CountingSpec)
        restored = pickle.loads(payload)
        assert built == []
        spec = restored[12_345]
        assert built == [12_345] and spec.index == 12_345
        assert restored[12_345] is spec and built == [12_345]

    def test_indexing_keeps_tuple_semantics(self):
        layout = BucketPartitioner().partition_density(16)
        assert layout[-1] is layout[15] and layout[-16] is layout[0]
        for past_the_end in (16, -17):
            with pytest.raises(IndexError):
                layout[past_the_end]
        assert [spec.index for spec in layout] == list(range(16))


def scan_buckets_for_range(layout, htm_range):
    """The loop ``buckets_for_range`` used to be: walk the tail of the layout."""
    first = max(0, bisect.bisect_right([b.htm_range.low for b in layout], htm_range.low) - 1)
    result = []
    for bucket in list(layout)[first:]:
        if bucket.htm_range.low > htm_range.high:
            break
        if bucket.htm_range.low <= htm_range.high and htm_range.low <= bucket.htm_range.high:
            result.append(bucket)
    return result


@st.composite
def gappy_layouts(draw):
    """Disjoint layouts with gaps and touching buckets, as the constructor accepts."""
    extents = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(min_value=1, max_value=150)),  # gap before
                st.integers(min_value=1, max_value=200),  # width
            ),
            min_size=1,
            max_size=30,
        )
    )
    ranges = []
    low = CURVE_START
    for gap, width in extents:
        low += gap
        ranges.append((low, low + width - 1))
        low += width
    return layout_from_ranges(ranges, [10] * len(ranges))


#: Ranges before, after, inside and straddling the stretch the layouts cover.
probe_ranges = st.tuples(
    st.integers(min_value=CURVE_START - 500, max_value=CURVE_START + 2_800),
    st.integers(min_value=0, max_value=1_500),
).map(lambda pair: HTMRange(pair[0], pair[0] + pair[1]))


class TestBucketsForRangeIsIndexed:
    @settings(max_examples=300, deadline=None)
    @given(layout=gappy_layouts(), htm_range=probe_ranges)
    def test_same_buckets_as_the_scan(self, layout, htm_range):
        expected = scan_buckets_for_range(layout, htm_range)
        assert layout.buckets_for_range(htm_range) == expected
        assert list(layout.bucket_indices_for_range(htm_range)) == [b.index for b in expected]

    def test_ranges_outside_the_layout(self):
        layout = layout_from_ranges(
            [(CURVE_START + 100, CURVE_START + 199), (CURVE_START + 300, CURVE_START + 399)],
            [10, 10],
            leaf_level=LEAF_LEVEL,
        )
        for low, high, expected in [
            (CURVE_START, CURVE_START + 99, []),  # before the first bucket
            (CURVE_START + 200, CURVE_START + 299, []),  # inside the gap
            (CURVE_START + 400, CURVE_END, []),  # past the last bucket
            (CURVE_START, CURVE_START + 100, [0]),  # straddles the start
            (CURVE_START + 199, CURVE_START + 300, [0, 1]),  # spans the gap
            (CURVE_START + 399, CURVE_END, [1]),  # straddles the end
            (CURVE_START, CURVE_END, [0, 1]),
        ]:
            assert list(layout.bucket_indices_for_range(HTMRange(low, high))) == expected

    def test_cost_does_not_grow_with_the_layout(self):
        """20,000 buckets may cost at most 3x what 40 do (the scan: ~130x)."""

        def us_per_call(bucket_count):
            layout = BucketPartitioner().partition_density(bucket_count)
            ranges = [
                HTMRange(spec.htm_range.low + 1, spec.htm_range.low + 2)
                for spec in list(layout)[:: max(1, bucket_count // 40)]
            ]
            best = float("inf")
            for _ in range(25):
                started = time.perf_counter()
                for htm_range in ranges:
                    layout.buckets_for_range(htm_range)
                best = min(best, time.perf_counter() - started)
            return best / len(ranges) * 1e6

        small, large = us_per_call(40), us_per_call(20_000)
        assert large <= 3.0 * small, f"{small:.2f} us at 40 buckets, {large:.2f} us at 20,000"
