"""The join references in ``join_oracle.py`` agree with the sky and with each other.

Every parity test of the columnar kernel trusts these references, so they
are checked here on their own: the fixture helpers ship what a survey
really holds, the whole-catalog join finds a companion survey's jittered
counterparts, and the per-bucket row merge over a ``.lrbs`` store's pages
finds exactly the pairs of the whole-catalog join.
"""

import pytest

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.core.preprocessor import QueryPreProcessor
from repro.core.workload_manager import WorkloadEntry
from repro.storage.disk_store import open_disk_store
from repro.storage.ingest import ingest_catalog
from repro.workload.query import CrossMatchQuery
from tests.core.join_oracle import (
    crossmatch_catalogs,
    error_circle_range,
    merge_join,
    to_crossmatch_objects,
)


@pytest.fixture(scope="module")
def surveys():
    generator = SkyGenerator(SkyGeneratorConfig(object_count=400, cluster_count=3, seed=31))
    sdss = generator.generate("sdss")
    twomass = generator.derive_companion(sdss, "twomass", completeness=0.85, extra_fraction=0.05)
    return sdss, twomass


class TestCrossmatchHelpers:
    def test_error_circle_range_contains_object(self, surveys):
        sdss, _twomass = surveys
        for obj in sdss.rows[:20]:
            assert obj.htm_id in error_circle_range(obj, radius_arcsec=3.0)

    def test_to_crossmatch_objects_carries_positions(self, surveys):
        sdss, _twomass = surveys
        shipped = to_crossmatch_objects(list(sdss)[:10], match_radius_arcsec=2.5)
        assert len(shipped) == 10
        for obj, row in zip(shipped, list(sdss)[:10]):
            assert (obj.object_id, obj.ra, obj.dec) == (row.object_id, row.ra, row.dec)
            assert obj.match_radius_arcsec == 2.5
            assert row.htm_id in obj.htm_range

    def test_reference_crossmatch_finds_jittered_counterparts(self, surveys):
        sdss, twomass = surveys
        incoming = to_crossmatch_objects(list(twomass)[:50], match_radius_arcsec=3.0)
        pairs = crossmatch_catalogs(incoming, sdss)
        assert pairs
        for shipped, matched in pairs:
            separation = 3600.0 * abs(shipped.dec - matched.dec)
            assert separation < 10.0  # sanity: matches are close in declination

    def test_radius_override_narrows_the_reference_join(self, surveys):
        sdss, twomass = surveys
        incoming = to_crossmatch_objects(list(twomass)[:80], match_radius_arcsec=3.0)
        wide = crossmatch_catalogs(incoming, sdss)
        narrow = crossmatch_catalogs(incoming, sdss, match_radius_arcsec=0.5)
        assert set(map(id_pair, narrow)) < set(map(id_pair, wide))

    def test_error_circle_grows_with_its_radius(self, surveys):
        sdss, _twomass = surveys
        for obj in sdss.rows[:20]:
            small = error_circle_range(obj, radius_arcsec=1.0)
            large = error_circle_range(obj, radius_arcsec=30.0)
            assert large.low <= small.low <= small.high <= large.high


def id_pair(pair):
    shipped, matched = pair
    return shipped.object_id, matched.object_id


def test_bucketed_row_merge_equals_the_whole_catalog_join(surveys, tmp_path):
    """Assigning objects to buckets and merging each against its page loses
    and invents no pair: the two references are one answer."""
    sdss, twomass = surveys
    incoming = to_crossmatch_objects(list(twomass)[:120], match_radius_arcsec=3.0)
    manifest = ingest_catalog(tmp_path / "sdss.lrbs", sdss, objects_per_bucket=100)
    query = CrossMatchQuery(query_id=1, objects=tuple(incoming))
    merged = set()
    with open_disk_store(manifest.path) as store:
        assignments = QueryPreProcessor(store.layout).assign(query)
        assert len(assignments) > 1
        for bucket_index, objects in assignments.items():
            rows = store.bucket_image(bucket_index).columns.rows()
            entries = [WorkloadEntry(1, len(objects), 0.0, tuple(objects))]
            pairs, per_query = merge_join(rows, entries)
            assert per_query == {1: len(pairs)}
            merged.update((p.workload_object.object_id, p.catalog_object.object_id) for p in pairs)
    reference = {(o.object_id, row.object_id) for o, row in crossmatch_catalogs(incoming, sdss)}
    assert merged == reference
    assert merged
