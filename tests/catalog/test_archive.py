"""Tests for a site archive: a catalog ingested into a ``.lrbs`` store, plus its index.

A full-fidelity site is the catalog partitioned into equal-population
buckets and written, HTM-sorted, into one columnar store file; the disk
model is calibrated so one bucket read takes the target time, and the
spatial index is built over the same HTM IDs.
"""

import pytest

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.format import StoreManifest
from repro.storage.index import SpatialIndex
from repro.storage.ingest import ingest_catalog
from tests.core.join_oracle import range_scan


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    generator = SkyGenerator(SkyGeneratorConfig(object_count=600, seed=13))
    catalog = generator.generate("sdss")
    path = tmp_path_factory.mktemp("archive") / "sdss.lrbs"
    manifest = ingest_catalog(path, catalog, objects_per_bucket=100, bucket_megabytes=4.0)
    disk = calibrated_disk_for_bucket_read(4.0, 0.2)
    with open_disk_store(manifest.path, disk) as store:
        yield catalog, manifest, store, SpatialIndex(catalog.htm_ids)


class TestBuildArchive:
    def test_partitioning_matches_catalog(self, archive):
        catalog, manifest, store, index = archive
        assert store.layout.total_objects() == len(catalog)
        assert manifest.bucket_count == len(store.layout) == 6
        assert manifest.total_rows == len(catalog)
        assert len(index) == len(catalog)

    def test_bucket_read_cost_is_calibrated(self, archive):
        _catalog, _manifest, store, _index = archive
        cost = store.read_bucket(0, charge_io=True).cost_ms
        assert cost == pytest.approx(200.0, rel=1e-6)

    def test_buckets_contain_their_objects(self, archive):
        catalog, _manifest, store, _index = archive
        spec = store.layout[0]
        image = store.bucket_image(0)
        assert len(image.columns) == spec.object_count
        assert all(hid in spec.htm_range for hid in image.columns.htm_ids)
        assert list(image.columns.rows()) == range_scan(catalog, spec.htm_range)

    def test_index_probe_agrees_with_catalog_scan(self, archive):
        catalog, _manifest, store, index = archive
        spec = store.layout[1]
        assert index.count_range(spec.htm_range) == len(range_scan(catalog, spec.htm_range))
        assert index.count_range(spec.htm_range) == len(store.bucket_image(1).columns)
        assert index.probe_range(spec.htm_range).pages_read > 0

    def test_manifest_summarises_shape(self, archive):
        catalog, manifest, store, _index = archive
        assert store.layout.total_objects() == len(catalog)
        assert len(store.layout) == manifest.bucket_count
        reader = store._reader
        assert manifest == StoreManifest(
            path=reader.path,
            generation=reader.generation,
            leaf_level=reader.layout.leaf_level,
            bucket_count=len(reader.layout),
            total_objects=reader.layout.total_objects(),
            total_rows=reader.total_rows,
            file_bytes=reader.file_bytes,
        )


class TestSyntheticArchive:
    def test_synthetic_archive_builds_end_to_end(self, tmp_path):
        catalog = SkyGenerator(SkyGeneratorConfig(object_count=200, seed=5)).generate("twomass")
        manifest = ingest_catalog(
            tmp_path / "twomass.lrbs", catalog, objects_per_bucket=50, bucket_megabytes=2.0
        )
        assert manifest.bucket_count == pytest.approx(len(catalog) / 50, abs=1)
        with open_disk_store(manifest.path, calibrated_disk_for_bucket_read(2.0, 0.1)) as store:
            block = store.read_bucket(0).bucket.columns
            assert block.surveys == ("twomass",)
            assert {row.survey for row in block.rows()} == {"twomass"}

    def test_uncalibrated_disk_still_reads(self, tmp_path):
        catalog = SkyGenerator(SkyGeneratorConfig(object_count=100, seed=6)).generate("sdss")
        manifest = ingest_catalog(
            tmp_path / "sdss.lrbs", catalog, objects_per_bucket=50, bucket_megabytes=2.0
        )
        with open_disk_store(manifest.path) as store:
            assert store.read_bucket(0).cost_ms > 0
