"""Tests for the bucket store (range queries against the partitioned table).

The in-memory :class:`BucketStore` serves counts only; the materialised
store — real rows, HTM-sorted per bucket — is a ``.lrbs`` file served by
:class:`~repro.storage.disk_store.DiskBucketStore`.  Both answer the same
read interface at the same cost.
"""

import pickle

import pytest

from repro.catalog.objects import CelestialObject
from repro.storage import bucket_store
from repro.storage.bucket_store import Bucket, BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.format import BucketFileWriter
from repro.storage.ingest import materialize_layout
from repro.storage.partitioner import BucketPartitioner

LEAF_LEVEL = 8
CURVE_START = 8 << (2 * LEAF_LEVEL)


def partition(objects_per_bucket=10, total=35):
    ids = [CURVE_START + 3 * i for i in range(total)]
    partitioner = BucketPartitioner(
        objects_per_bucket=objects_per_bucket, bucket_megabytes=40.0, leaf_level=LEAF_LEVEL
    )
    return partitioner.partition_objects(ids), ids


def build_store(objects_per_bucket=10, total=35):
    layout, _ids = partition(objects_per_bucket, total)
    return BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))


def catalog_rows(ids):
    return [
        CelestialObject(
            object_id=i, ra=0.01 * i, dec=0.0, htm_id=htm_id, magnitude=15.0, survey="sdss"
        )
        for i, htm_id in enumerate(ids)
    ]


def assert_read_costs_follow_the_disk_model(store):
    """Each read costs one positioning delay plus a sequential pass over its bucket.

    The last bucket of :func:`partition` is half full, so the check also
    sees the cost scale with the bucket's size.
    """
    parameters = store.disk.parameters
    costs = []
    for index, spec in enumerate(store.layout):
        estimate = parameters.positioning_ms + parameters.transfer_ms(spec.megabytes)
        costs.append(store.read_bucket(index).cost_ms)
        assert costs[-1] == pytest.approx(estimate, rel=1e-12)
    assert costs[-1] < costs[0]


@pytest.fixture
def materialised(tmp_path):
    """A ``.lrbs`` store holding every row of the layout, plus those rows."""
    layout, ids = partition()
    rows = catalog_rows(ids)
    writer = BucketFileWriter(tmp_path / "rows.lrbs", layout)
    cursor = 0
    for spec in layout:
        end = cursor + spec.object_count
        writer.append_bucket(ids[cursor:end], rows[cursor:end])
        cursor = end
    manifest = writer.finish()
    with open_disk_store(manifest.path, calibrated_disk_for_bucket_read(40.0, 1.2)) as store:
        yield store, ids, rows


class TestMaterialisedStore:
    def test_read_returns_rows_of_that_bucket_only(self, materialised):
        store, ids, rows = materialised
        result = store.read_bucket(0)
        assert len(result.bucket.columns) == 10
        assert result.bucket.columns.rows() == tuple(rows[:10])
        assert list(result.bucket.columns.htm_ids) == ids[:10]
        assert result.bucket.columns is not None

    def test_read_charges_full_bucket_cost(self, materialised):
        store, _, _ = materialised
        result = store.read_bucket(0)
        assert result.cost_ms == pytest.approx(1200.0, rel=1e-9)
        assert store.reads == 1
        assert store.bytes_read_mb == pytest.approx(store.layout[0].megabytes)

    def test_read_cost_matches_the_count_only_store(self, materialised):
        store, _, _ = materialised
        actual = store.read_bucket(1).cost_ms
        assert actual == pytest.approx(build_store().read_bucket(1).cost_ms)

    def test_read_cost_estimate_matches_actual(self, materialised):
        store, _, _ = materialised
        assert_read_costs_follow_the_disk_model(store)

    def test_charge_io_can_be_disabled(self, materialised):
        store, _, _ = materialised
        result = store.read_bucket(0, charge_io=False)
        assert result.cost_ms == 0.0

    def test_bucket_image_has_no_io_side_effects(self, materialised):
        store, _, rows = materialised
        image = store.bucket_image(2)
        assert image.columns.rows() == tuple(rows[20:30])
        assert store.reads == 0

    def test_misaligned_objects_rejected(self, tmp_path):
        layout, ids = partition()
        rows = catalog_rows(ids)
        writer = BucketFileWriter(tmp_path / "bad.lrbs", layout)
        with pytest.raises(ValueError):
            writer.append_bucket(ids[:10], rows[:9])
        with pytest.raises(ValueError):
            writer.append_bucket(list(reversed(ids[:10])), rows[:10])
        writer.abort()
        assert not (tmp_path / "bad.lrbs").exists()

    def test_zero_row_page_is_materialised_not_virtual(self, tmp_path):
        """A page written with no rows is still a column block: nothing to
        join, but not a count-only bucket."""
        layout, _ids = partition()
        manifest = materialize_layout(tmp_path / "empty.lrbs", layout, rows_per_bucket=0)
        with open_disk_store(manifest.path) as store:
            bucket = store.read_bucket(0).bucket
            assert len(bucket.columns) == 0
            assert bucket.object_count == 10
            assert bucket.columns is not None


class TestVirtualStore:
    def test_virtual_buckets_carry_counts_only(self):
        store = build_store()
        result = store.read_bucket(0)
        assert result.bucket.object_count == 10
        assert result.bucket.columns is None

    def test_read_charges_full_bucket_cost(self):
        store = build_store()
        result = store.read_bucket(0)
        assert result.cost_ms == pytest.approx(1200.0, rel=1e-9)
        assert store.reads == 1
        assert store.bytes_read_mb == pytest.approx(store.layout[0].megabytes)

    def test_read_cost_estimate_matches_actual(self):
        assert_read_costs_follow_the_disk_model(build_store())

    def test_charge_io_can_be_disabled(self):
        store = build_store()
        result = store.read_bucket(0, charge_io=False)
        assert result.cost_ms == 0.0

    def test_bucket_image_has_no_io_side_effects(self):
        store = build_store()
        image = store.bucket_image(2)
        assert image.spec == store.layout[2]
        assert store.reads == 0

    def test_read_cost_is_the_disk_models_bucket_read(self):
        store = build_store()
        for index, spec in enumerate(store.layout):
            assert store.read_bucket(index).cost_ms == store.disk.bucket_read_ms(spec.megabytes)

    def test_uncharged_read_still_counts_the_read(self):
        """Callers that charge I/O themselves still read the bucket."""
        store = build_store()
        result = store.read_bucket(3, charge_io=False)
        assert result.bucket.object_count == 5
        assert store.reads == 1
        assert store.bytes_read_mb == store.layout[3].megabytes

    def test_partial_final_bucket_costs_less(self):
        store = build_store()
        full = store.read_bucket(0).cost_ms
        partial = store.read_bucket(3).cost_ms  # 5 of 10 objects
        assert partial < full

    def test_snapshot_rebuilds_an_equivalent_store_with_fresh_counters(self):
        store = build_store()
        store.read_bucket(0)
        snapshot = pickle.loads(pickle.dumps(store.snapshot()))
        assert snapshot.store_path is None
        restored = BucketStore.from_snapshot(snapshot)
        assert type(restored) is BucketStore
        assert restored.layout == store.layout
        assert restored.generation == store.generation
        assert restored.reads == 0
        for index in range(len(store.layout)):
            assert restored.read_bucket(index).cost_ms == store.read_bucket(index).cost_ms

    def test_a_derived_generation_travels_in_the_snapshot(self, monkeypatch):
        """A store that derived its generation hands it to every store
        restored from its snapshot, which then never hashes the layout; one
        that never derived it hands over nothing and derives nothing."""
        store = build_store()
        assert store.snapshot().generation is None
        assert BucketStore.from_snapshot(store.snapshot())._generation is None
        generation = store.generation
        snapshot = pickle.loads(pickle.dumps(store.snapshot()))
        assert snapshot.generation == generation

        def no_hash(*args):
            raise AssertionError("a seeded store hashed its layout")

        monkeypatch.setattr(bucket_store.hashlib, "sha256", no_hash)
        assert BucketStore.from_snapshot(snapshot).generation == generation

    def test_repr_names_the_bucket_shape(self, materialised):
        disk_store, _, _ = materialised
        assert repr(build_store().bucket_image(1)) == "Bucket(index=1, counts only)"
        assert repr(disk_store.bucket_image(3)) == "Bucket(index=3, rows=5)"
        assert Bucket(disk_store.layout[0]).columns is None
