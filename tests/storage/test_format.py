"""Property-style tests of the columnar bucket codec and file format.

The on-disk format is load-bearing for every file-backed experiment, so
its invariants are pinned directly: encode→decode identity on random
catalogs, HTM-order preservation, and clean :class:`StoreFormatError`
failures on corrupted or truncated files (never garbage buckets).
"""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.objects import CatalogTable, CelestialObject
from repro.storage.format import (
    FORMAT_VERSION,
    MAGIC,
    BucketFileReader,
    BucketFileWriter,
    StoreFormatError,
    decode_bucket_page,
    encode_bucket_page,
    read_layout,
)
from repro.storage import ingest as ingest_module
from repro.storage.ingest import ingest_catalog, materialize_layout, synthesize_bucket_rows
from repro.storage.partitioner import BucketPartitioner

LEAF_LEVEL = 8
CURVE_START = 8 << (2 * LEAF_LEVEL)
CURVE_END = (16 << (2 * LEAF_LEVEL)) - 1


@st.composite
def random_catalog(draw):
    """Draw a small random catalog as HTM-sorted CelestialObjects."""
    ids = draw(
        st.lists(
            st.integers(min_value=CURVE_START, max_value=CURVE_END),
            min_size=1,
            max_size=120,
        )
    )
    ids.sort()
    surveys = ("sdss", "twomass", "usnob")
    rows = []
    for position, htm_id in enumerate(ids):
        rows.append(
            CelestialObject(
                object_id=draw(st.integers(min_value=-(2**40), max_value=2**40)),
                ra=draw(st.floats(0.0, 360.0, allow_nan=False)),
                dec=draw(st.floats(-90.0, 90.0, allow_nan=False)),
                htm_id=htm_id,
                magnitude=draw(st.floats(5.0, 30.0, allow_nan=False)),
                survey=surveys[position % len(surveys)],
            )
        )
    return rows


class TestPageCodec:
    @given(random_catalog())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_encode_decode_identity(self, rows):
        codes = {}
        payload = encode_bucket_page([r.htm_id for r in rows], rows, codes)
        surveys = sorted(codes, key=codes.get)
        ids, decoded = decode_bucket_page(payload, surveys)
        assert list(ids) == [r.htm_id for r in rows]
        assert list(decoded) == rows

    @given(random_catalog())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_decoded_pages_stay_htm_sorted(self, rows):
        codes = {}
        payload = encode_bucket_page([r.htm_id for r in rows], rows, codes)
        ids, _ = decode_bucket_page(payload, sorted(codes, key=codes.get))
        assert list(ids) == sorted(ids)

    def test_unsorted_page_rejected_at_encode(self):
        rows = [
            CelestialObject(object_id=i, ra=0.0, dec=0.0, htm_id=htm_id)
            for i, htm_id in enumerate([CURVE_START + 5, CURVE_START + 1])
        ]
        with pytest.raises(ValueError, match="HTM-sorted"):
            encode_bucket_page([r.htm_id for r in rows], rows, {})

    def test_empty_page_round_trips(self):
        payload = encode_bucket_page([], [], {})
        ids, rows = decode_bucket_page(payload, [])
        assert ids == () and rows == ()

    def test_length_mismatch_detected(self):
        rows = [CelestialObject(object_id=0, ra=1.0, dec=2.0, htm_id=CURVE_START)]
        payload = encode_bucket_page([CURVE_START], rows, {})
        with pytest.raises(StoreFormatError, match="length mismatch"):
            decode_bucket_page(payload[:-3], ["sdss"])

    def test_unknown_survey_code_detected(self):
        rows = [CelestialObject(object_id=0, ra=1.0, dec=2.0, htm_id=CURVE_START)]
        payload = encode_bucket_page([CURVE_START], rows, {})
        with pytest.raises(StoreFormatError, match="survey code"):
            decode_bucket_page(payload, [])


def build_catalog(count: int, seed: int = 0) -> CatalogTable:
    rows = []
    span = CURVE_END - CURVE_START
    for i in range(count):
        htm_id = CURVE_START + ((i * 7919 + seed * 31) % span)
        rows.append(
            CelestialObject(
                object_id=i,
                ra=(i * 13.7) % 360.0,
                dec=((i * 7.3) % 160.0) - 80.0,
                htm_id=htm_id,
                magnitude=14.0 + (i % 9),
                survey="sdss" if i % 2 else "twomass",
            )
        )
    return CatalogTable("sdss", rows)


class TestFileRoundTrip:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_catalog_ingest_round_trips_exactly(self, tmp_path_factory, count, per_bucket, seed):
        tmp_path = tmp_path_factory.mktemp("fmt")
        table = build_catalog(count, seed)
        path = tmp_path / "catalog.lrbs"
        manifest = ingest_catalog(path, table, objects_per_bucket=per_bucket, leaf_level=LEAF_LEVEL)
        assert manifest.total_rows == count
        with BucketFileReader(path) as reader:
            assert reader.generation == manifest.generation
            recovered = []
            previous_high = CURVE_START - 1
            for spec in reader.layout:
                assert spec.htm_range.low == previous_high + 1, "gap in the layout"
                previous_high = spec.htm_range.high
                ids, rows = reader.read_bucket(spec.index)
                assert list(ids) == sorted(ids)
                assert len(rows) == spec.object_count
                recovered.extend(rows)
        assert recovered == list(table.rows)

    def test_synthesized_object_ids_unique_across_buckets(self, tmp_path):
        # Uneven row counts per bucket (the last bucket carries the
        # remainder) must not produce colliding object IDs.
        layout = BucketPartitioner(objects_per_bucket=8).partition_density(
            4, total_objects=35
        )
        materialize_layout(tmp_path / "u.lrbs", layout, rows_per_bucket=10)
        with BucketFileReader(tmp_path / "u.lrbs") as reader:
            ids = [
                row.object_id
                for index in range(len(reader.layout))
                for row in reader.read_bucket(index)[1]
            ]
        assert len(ids) == len(set(ids))

    def test_layout_round_trips(self, tmp_path):
        layout = BucketPartitioner().partition_density(
            24, densities=[1.0 + (i % 5) for i in range(24)]
        )
        materialize_layout(tmp_path / "d.lrbs", layout, rows_per_bucket=8)
        assert read_layout(tmp_path / "d.lrbs") == layout

    def test_generation_covers_page_content_not_just_layout(self, tmp_path):
        # Same layout, same per-bucket row counts, different row *contents*
        # (seed): the generations must differ, otherwise a shared decoded-
        # page cache could serve stale pages across re-ingests.
        layout = BucketPartitioner().partition_density(6)
        a = materialize_layout(tmp_path / "a.lrbs", layout, rows_per_bucket=8, seed=1)
        b = materialize_layout(tmp_path / "b.lrbs", layout, rows_per_bucket=8, seed=2)
        assert a.generation != b.generation

    def test_writer_requires_all_buckets(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "partial.lrbs", layout)
        rows = synthesize_bucket_rows(layout[0], 4)
        writer.append_bucket([r.htm_id for r in rows], rows)
        with pytest.raises(ValueError, match="only 1 pages"):
            writer.finish()
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_rejects_out_of_range_rows(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "bad.lrbs", layout)
        foreign = synthesize_bucket_rows(layout[3], 2)
        with pytest.raises(ValueError, match="outside bucket"):
            writer.append_bucket([r.htm_id for r in foreign], foreign)
        writer.abort()


class TestCorruptionDetection:
    @pytest.fixture
    def store_file(self, tmp_path):
        layout = BucketPartitioner().partition_density(8)
        manifest = materialize_layout(tmp_path / "site.lrbs", layout, rows_per_bucket=32)
        return manifest.path

    def test_bad_magic_rejected(self, store_file):
        with open(store_file, "r+b") as handle:
            handle.write(b"NOPE")
        with pytest.raises(StoreFormatError, match="bad magic"):
            BucketFileReader(store_file)

    def test_unsupported_version_rejected(self, store_file):
        with open(store_file, "r+b") as handle:
            handle.seek(len(MAGIC))
            handle.write(struct.pack("<H", FORMAT_VERSION + 1))
        # The version bump also breaks the header CRC; both are clean errors.
        with pytest.raises(StoreFormatError):
            BucketFileReader(store_file)

    def test_header_corruption_rejected(self, store_file):
        with open(store_file, "r+b") as handle:
            handle.seek(8)
            handle.write(b"\xff\xff")
        with pytest.raises(StoreFormatError, match="header checksum"):
            BucketFileReader(store_file)

    def test_page_corruption_detected_on_read(self, store_file):
        with BucketFileReader(store_file) as intact:
            intact.read_bucket(3)  # sanity: readable before corruption
        size = os.path.getsize(store_file)
        with open(store_file, "r+b") as handle:
            handle.seek(size // 3)
            original = handle.read(1)
            handle.seek(size // 3)
            handle.write(bytes([original[0] ^ 0xFF]))
        reader = BucketFileReader(store_file)  # metadata may still be intact
        with pytest.raises(StoreFormatError, match="checksum mismatch"):
            for index in range(len(reader.layout)):
                reader.read_bucket(index)
        reader.close()

    def test_truncated_file_rejected(self, store_file, tmp_path):
        blob = open(store_file, "rb").read()
        truncated = tmp_path / "truncated.lrbs"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StoreFormatError):
            BucketFileReader(truncated)

    def test_unfinished_ingest_rejected(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "unfinished.lrbs", layout)
        rows = synthesize_bucket_rows(layout[0], 4)
        writer.append_bucket([r.htm_id for r in rows], rows)
        writer._handle.flush()
        with pytest.raises(StoreFormatError, match="ingest did not finish"):
            BucketFileReader(writer._temp_path)
        writer.abort()

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(StoreFormatError, match="cannot open"):
            BucketFileReader(tmp_path / "missing.lrbs")


class TestColumnarBlocks:
    """Zero-copy ColumnBlock reads: parity with the strict row path."""

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_block_decode_matches_row_decode(self, tmp_path_factory, count, per_bucket, seed):
        """Every mmap window decodes to the same rows the strict path yields.

        Random catalogs over random bucket widths exercise empty buckets,
        single-row pages, and pages at both ends of the mmap (first page
        right after the header, last page right before the directory).
        """
        tmp_path = tmp_path_factory.mktemp("blocks")
        table = build_catalog(count, seed)
        path = tmp_path / "catalog.lrbs"
        ingest_catalog(path, table, objects_per_bucket=per_bucket, leaf_level=LEAF_LEVEL)
        with BucketFileReader(path) as reader:
            for index in range(len(reader)):
                block = reader.read_bucket_block(index)
                ids, rows = reader.read_bucket(index)
                assert list(block.htm_ids) == list(ids)
                assert list(block.rows()) == list(rows)
                assert len(block) == reader.row_count(index)
                for position, row in enumerate(rows):
                    assert block.row(position) == row
                    assert block.object_ids[position] == row.object_id
                    assert block.ra[position] == row.ra
                    assert block.dec[position] == row.dec
                    assert block.magnitude[position] == row.magnitude
                    assert block.surveys[block.survey_codes[position]] == row.survey

    def test_blocks_survive_reader_close(self, tmp_path):
        """Unmapping is deferred while blocks still hold column views."""
        layout = BucketPartitioner(objects_per_bucket=16).partition_density(4, total_objects=64)
        materialize_layout(tmp_path / "site.lrbs", layout, rows_per_bucket=8)
        reader = BucketFileReader(tmp_path / "site.lrbs")
        block = reader.read_bucket_block(0)
        reader.close()
        assert list(block.htm_ids) == sorted(block.htm_ids)
        assert len(block.rows()) == 8

    def test_empty_bucket_block(self, tmp_path):
        """Zero-row pages decode to empty, zero-length blocks."""
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "sparse.lrbs", layout)
        populated = synthesize_bucket_rows(layout[1], 6)
        for spec in layout:
            if spec.index == 1:
                writer.append_bucket([r.htm_id for r in populated], populated)
            else:
                writer.append_bucket([], [])
        writer.finish()
        with BucketFileReader(tmp_path / "sparse.lrbs") as reader:
            for index in range(len(reader)):
                block = reader.read_bucket_block(index)
                if index == 1:
                    assert len(block) == 6
                else:
                    assert len(block) == 0
                    assert block.rows() == ()


class TestAtomicPublish:
    """An ingest writes a temp file and publishes it whole with ``os.replace``."""

    def test_open_reader_keeps_its_bytes_across_a_reingest(self, tmp_path):
        layout = BucketPartitioner().partition_density(8)
        path = tmp_path / "site.lrbs"
        first = materialize_layout(path, layout, rows_per_bucket=32, seed=1)
        reader = BucketFileReader(path)
        block = reader.read_bucket_block(2)
        before = list(block.ra)
        second = materialize_layout(path, layout, rows_per_bucket=32, seed=2)
        assert second.generation != first.generation
        assert list(block.ra) == before
        assert list(reader.read_bucket_block(2).ra) == before
        assert reader.generation == first.generation
        reader.close()
        with BucketFileReader(path) as fresh:
            assert fresh.generation == second.generation
            assert list(fresh.read_bucket_block(2).ra) != before

    def test_failed_ingest_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        layout = BucketPartitioner().partition_density(8)
        path = tmp_path / "site.lrbs"
        materialize_layout(path, layout, rows_per_bucket=32, seed=1)
        original = path.read_bytes()
        encode = ingest_module._encode_synthetic_page

        def fail_midway(task):
            if task[0].index == 5:
                raise RuntimeError("ingest died")
            return encode(task)

        monkeypatch.setattr(ingest_module, "_encode_synthetic_page", fail_midway)
        with pytest.raises(RuntimeError, match="ingest died"):
            materialize_layout(path, layout, rows_per_bucket=32, seed=2)
        assert path.read_bytes() == original
        assert [entry.name for entry in tmp_path.iterdir()] == ["site.lrbs"]

    @staticmethod
    def write_every_page(writer, layout):
        for spec in layout:
            rows = synthesize_bucket_rows(spec, 4)
            writer.append_bucket([r.htm_id for r in rows], rows)

    def test_destination_appears_only_at_finish(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        path = tmp_path / "site.lrbs"
        writer = BucketFileWriter(path, layout)
        self.write_every_page(writer, layout)
        assert not path.exists()
        (temp,) = tmp_path.iterdir()
        assert temp.name.endswith(".lrbs.tmp")
        manifest = writer.finish()
        assert [entry.name for entry in tmp_path.iterdir()] == ["site.lrbs"]
        with BucketFileReader(path) as reader:
            assert reader.generation == manifest.generation

    def test_abort_leaves_a_fresh_path_absent(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "site.lrbs", layout)
        self.write_every_page(writer, layout)
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_abort_leaves_an_existing_file_byte_identical(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        path = tmp_path / "site.lrbs"
        materialize_layout(path, layout, rows_per_bucket=8, seed=1)
        original = path.read_bytes()
        writer = BucketFileWriter(path, layout)
        self.write_every_page(writer, layout)
        writer.abort()
        assert path.read_bytes() == original
        assert [entry.name for entry in tmp_path.iterdir()] == ["site.lrbs"]


class TestParallelIngest:
    def test_parallel_ingest_is_byte_identical(self, tmp_path):
        layout = BucketPartitioner(objects_per_bucket=16).partition_density(4, total_objects=256)
        serial = materialize_layout(tmp_path / "serial.lrbs", layout, rows_per_bucket=12)
        parallel = materialize_layout(
            tmp_path / "parallel.lrbs", layout, rows_per_bucket=12, workers=2
        )
        assert parallel.generation == serial.generation
        assert (tmp_path / "parallel.lrbs").read_bytes() == (tmp_path / "serial.lrbs").read_bytes()

    def test_workers_validated(self, tmp_path):
        layout = BucketPartitioner(objects_per_bucket=16).partition_density(4, total_objects=64)
        with pytest.raises(ValueError, match="workers must be positive"):
            materialize_layout(tmp_path / "w.lrbs", layout, rows_per_bucket=4, workers=0)
