"""The columnar density ingest against the row path it replaced.

``tests/storage/ingest_oracle.py`` keeps the old row synthesis and row
encoder verbatim.  The live ingest must write the same bytes: page by
page over drawn layouts, and whole files at the goldens below, which were
recorded with the row path before it was replaced.
"""

import dataclasses
import hashlib
from zlib import crc32

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fileio import FormatError
from repro.htm.curve import HTMRange
from repro.storage.format import (
    _CRC,
    _DIR_ENTRY,
    _HEADER,
    _PAGE_HEADER,
    BucketFileReader,
    BucketFileWriter,
    _is_sorted,
    decode_bucket_page,
    encode_bucket_page,
    encode_columns,
)
from repro.storage.ingest import (
    encode_synthetic_page,
    materialize_layout,
    synthesize_bucket_columns,
)
from repro.storage.partitioner import BucketPartitioner, BucketSpec
from tests.storage import ingest_oracle
from tests.storage.test_format import random_catalog, synthesize_bucket_rows

#: Generations of the paper-scale ``noshare_file_cold`` store (1,024
#: equal-width buckets, 512 rows each) at two input seeds, and the sha256 of
#: the whole file, recorded with the row path.
PAPER_SCALE_GOLDEN = {
    138804944: (
        "c3d6952e80f6f8d7",
        "9ea081aa4580a29748cfa1aec630d29c95ae43ee5766392a7b4c4895ea182426",
    ),
    29456: (
        "81335ead00f8e8d4",
        "28e5f2459567b4cb135e6afa649b3dc266950d13e05356c6ceebbaab44a950f9",
    ),
}
#: ``liferaft ingest --scale small`` (512 buckets, 512 rows, seed 0).
SMALL_SCALE_GOLDEN = (
    "d9793c52565efc09",
    "53962eebcf7c02993c678ef2b71288f8cf2584bc80cb563db000aa6173f28b71",
)


def oracle_store(path, layout, rows_per_bucket, seed):
    """The file the row-path ingest wrote: oracle pages through the live writer."""
    writer = BucketFileWriter(path, layout)
    for spec in layout:
        count = spec.object_count
        if rows_per_bucket is not None:
            count = min(count, rows_per_bucket)
        page = ingest_oracle.density_page(spec, count, seed)
        writer.append_encoded(page, count, ("synthetic",) if count else ())
    return writer.finish()


@st.composite
def bucket_specs(draw):
    """A bucket anywhere on the curve, from one HTM ID wide to billions."""
    low = draw(st.integers(min_value=8 << 40, max_value=(16 << 40) - 1))
    span = draw(st.one_of(st.integers(1, 8), st.integers(1, 1 << 36)))
    return BucketSpec(
        index=draw(st.integers(0, 1 << 20)),
        htm_range=HTMRange(low, low + span - 1),
        object_count=draw(st.integers(0, 10_000)),
        megabytes=1.0,
    )


class TestColumnarSynthesis:
    @given(
        bucket_specs(),
        st.one_of(st.sampled_from([0, 1, 2, 9, 512]), st.integers(0, 700)),
        st.integers(-(2**40), 2**40),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pages_equal_the_row_path(self, spec, rows, seed):
        """Includes 0 and 1 rows, and more rows than the bucket's HTM span."""
        page, surveys = encode_synthetic_page(spec, rows, seed)
        assert page == ingest_oracle.density_page(spec, rows, seed)
        assert surveys == (("synthetic",) if rows else ())
        oracle_rows = ingest_oracle.synthesize_bucket_rows(spec, rows, seed=seed)
        assert synthesize_bucket_rows(spec, rows, seed=seed) == oracle_rows

    @given(
        st.integers(1, 12),
        st.integers(1, 40),
        # Level 1 is 32 leaf IDs: a dozen buckets two or three IDs wide.
        st.integers(1, 8),
        st.one_of(st.none(), st.integers(0, 12)),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_stores_equal_the_row_path(
        self, tmp_path_factory, bucket_count, total, leaf_level, rows_per_bucket, seed
    ):
        """Whole files, partial last buckets and empty survey dictionaries included."""
        tmp_path = tmp_path_factory.mktemp("ingest")
        layout = BucketPartitioner(objects_per_bucket=3, leaf_level=leaf_level).partition_density(
            bucket_count, total_objects=bucket_count * total + total % 5
        )
        live = materialize_layout(tmp_path / "live.lrbs", layout, rows_per_bucket, seed)
        oracle = oracle_store(tmp_path / "oracle.lrbs", layout, rows_per_bucket, seed)
        assert live == dataclasses.replace(oracle, path=live.path)
        assert (tmp_path / "live.lrbs").read_bytes() == (tmp_path / "oracle.lrbs").read_bytes()

    def test_negative_rows_rejected(self):
        spec = BucketPartitioner().partition_density(1)[0]
        with pytest.raises(ValueError, match="rows must be non-negative"):
            synthesize_bucket_columns(spec, -1)


class TestRowAdapter:
    @given(random_catalog(), st.booleans())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_row_pages_equal_the_row_path(self, rows, seeded_dictionary):
        """``encode_bucket_page`` (the ``ingest_catalog`` path) writes the old bytes."""
        start = {"usnob": 0} if seeded_dictionary else {}
        live_codes, oracle_codes = dict(start), dict(start)
        ids = [row.htm_id for row in rows]
        oracle_page = ingest_oracle.encode_bucket_page(ids, rows, oracle_codes)
        assert encode_bucket_page(ids, rows, live_codes) == oracle_page
        assert live_codes == oracle_codes

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="as long as the HTM column"):
            encode_columns([1, 2], [0, 1], [0.0], [0.0, 0.0], [0.0, 0.0], bytes(2))


class TestSortedness:
    @pytest.mark.parametrize(
        "ids, expected",
        [([], True), ([5], True), ([1, 1, 2], True), ([1, 3, 2], False), ([2, 1], False)],
    )
    def test_is_sorted_allows_ties(self, ids, expected):
        assert _is_sorted(ids) is expected
        assert _is_sorted(tuple(ids)) is expected

    def test_strict_decode_message_unchanged(self):
        page = bytearray(encode_columns([2, 3], [0, 1], [0.0] * 2, [0.0] * 2, [0.0] * 2, bytes(2)))
        # Swap the two HTM IDs behind the encoder's back.
        first, second = _PAGE_HEADER.size, _PAGE_HEADER.size + 8
        page[first : second + 8] = page[second : second + 8] + page[first:second]
        with pytest.raises(FormatError, match="^bucket page is not HTM-sorted$"):
            decode_bucket_page(bytes(page), ["synthetic"])


class TestRowCountAgreement:
    """A page's own row count and its directory entry must agree."""

    def test_writer_rejects_a_row_count_the_page_does_not_hold(self, tmp_path):
        layout = BucketPartitioner().partition_density(4)
        writer = BucketFileWriter(tmp_path / "lying.lrbs", layout)
        page, surveys = encode_synthetic_page(layout[0], 4, 0)
        with pytest.raises(ValueError, match=r"does not hold its row_count \(7\) rows"):
            writer.append_encoded(page, 7, surveys)
        with pytest.raises(ValueError, match=r"does not hold its row_count \(0\) rows"):
            writer.append_encoded(b"\x00", 0, ())
        with pytest.raises(ValueError, match=r"does not hold its row_count \(4\) rows"):
            writer.append_encoded(page + b"\x00", 4, surveys)
        lying_header = _PAGE_HEADER.pack(3) + page[_PAGE_HEADER.size :]
        with pytest.raises(ValueError, match=r"does not hold its row_count \(4\) rows"):
            writer.append_encoded(lying_header, 4, surveys)
        writer.append_encoded(page, 4, surveys)
        writer.abort()

    def test_reader_rejects_a_directory_count_the_page_does_not_hold(self, tmp_path):
        """An entry counting 7 rows for a 4-row page, under a valid directory CRC."""
        path = tmp_path / "tampered.lrbs"
        materialize_layout(path, BucketPartitioner().partition_density(4), rows_per_bucket=4)
        data = bytearray(path.read_bytes())
        directory_offset = _HEADER.unpack_from(data)[5]
        entry = list(_DIR_ENTRY.unpack_from(data, directory_offset))
        entry[4] += 3  # row_count
        _DIR_ENTRY.pack_into(data, directory_offset, *entry)
        _CRC.pack_into(data, len(data) - _CRC.size, crc32(data[directory_offset : -_CRC.size]))
        path.write_bytes(data)
        with pytest.raises(
            FormatError, match=r"bucket 0's page is 168 bytes, not the 7 rows its directory entry"
        ):
            BucketFileReader(path)


class TestGoldens:
    @pytest.mark.parametrize("seed", sorted(PAPER_SCALE_GOLDEN))
    def test_paper_scale_store(self, tmp_path, seed):
        path = tmp_path / "site.lrbs"
        layout = BucketPartitioner().partition_density(1024)
        manifest = materialize_layout(path, layout, rows_per_bucket=512, seed=seed)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert (manifest.generation, digest) == PAPER_SCALE_GOLDEN[seed]
        assert manifest.total_rows == 1024 * 512

    def test_small_scale_cli_ingest(self, tmp_path, capsys):
        path = tmp_path / "small.lrbs"
        assert main(["ingest", "--scale", "small", "--out", str(path)]) == 0
        generation, digest = SMALL_SCALE_GOLDEN
        assert f"generation {generation}" in capsys.readouterr().out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
