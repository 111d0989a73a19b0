"""The on-disk columnar bucket format (``.lrbs`` — LifeRaft Bucket Store).

LifeRaft's economics come from amortising *physical* sequential bucket
reads across query batches (§4–5); measuring that requires buckets that
actually live on disk.  This module defines the compact columnar file
format the rest of the storage subsystem reads and writes:

.. code-block:: text

    +--------------------------------------------------------------+
    | header   magic "LRBS" | version | flags | leaf_level          |
    |          bucket_count | directory_offset | header_crc         |
    +--------------------------------------------------------------+
    | bucket 0 page   row_count | col htm_id[] | col object_id[]    |
    |                 col ra[] | col dec[] | col magnitude[]        |
    |                 col survey_code[]                             |
    +--------------------------------------------------------------+
    | bucket 1 page   ...                                           |
    |   ⋮                                                           |
    +--------------------------------------------------------------+
    | directory   per bucket: htm low/high | object_count           |
    |             megabytes | row_count | page offset | page length |
    |             page_crc | survey dictionary | directory_crc      |
    +--------------------------------------------------------------+

Design points:

* **One file per partition layout.**  The header + directory carry the
  complete :class:`~repro.storage.partitioner.PartitionLayout`, so a
  reader reconstructs the site's bucket boundaries without any side
  channel — worker processes open the file read-only instead of
  unpickling the whole catalog.
* **Columnar, struct-packed pages.**  Within a bucket page each column is
  stored contiguously (``<{n}Q`` / ``<{n}d`` arrays), HTM-sorted, so a
  bucket read is one seek plus one sequential transfer followed by a
  cheap bulk ``struct.unpack`` — the same access pattern the paper's
  ``Tb`` constant models.
* **Checksums everywhere.**  The header, every bucket page and the
  directory carry CRC32s; corruption and truncation surface as a clean
  :class:`StoreFormatError` instead of garbage buckets.
* **A content-derived generation.**  The file's *generation* is a digest
  of its directory — which embeds every page's CRC, so it covers page
  *content*, not just the layout; it keys the decoded-page cache tier so
  pages decoded from one ingest are never served against a re-ingested
  file, even one with identical layout and row counts.

Row counts may be smaller than the layout's per-bucket object counts:
the scaled experiments charge costs from the layout (``object_count``,
``megabytes``) while materialising a bounded number of physical rows per
bucket, so real I/O work is present without multi-gigabyte files.
"""

from __future__ import annotations

import hashlib
import io
import math
import mmap
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, NamedTuple, Sequence, Tuple
from zlib import crc32

from repro.catalog.objects import CelestialObject
from repro.htm.curve import HTMRange
from repro.storage.partitioner import BucketSpec, PartitionLayout

#: File magic: LifeRaft Bucket Store.
MAGIC = b"LRBS"
#: Current format version.  Readers reject any other version cleanly.
FORMAT_VERSION = 1
#: Default file extension used by the ingest CLI and the examples.
STORE_SUFFIX = ".lrbs"

_HEADER = struct.Struct("<4sHHIIQI")  # magic, version, flags, leaf_level,
# bucket_count, directory_offset, header_crc
_DIR_ENTRY = struct.Struct("<QQQdQQQI")  # low, high, object_count, megabytes,
# row_count, page_offset, page_length, page_crc
_PAGE_HEADER = struct.Struct("<I")  # row_count
_CRC = struct.Struct("<I")


class StoreFormatError(RuntimeError):
    """Raised when a bucket store file is malformed, corrupt or truncated."""


#: Column casts are zero-copy only when the machine's byte order matches the
#: file's little-endian layout; big-endian hosts fall back to a bulk
#: ``struct.unpack`` (still column-at-a-time, just one copy per column).
_NATIVE_LITTLE_ENDIAN = sys.byteorder == "little"


class DerivedColumns(NamedTuple):
    """What the crossmatch kernel needs of every row, computed once per block.

    Plain lists of Python objects: a ``bisect`` or an indexed read over a
    list costs half of one over a ``memoryview`` cast (no boxing per probe),
    and each row's trigonometry is paid once for as long as the block stays
    cached instead of once per candidate pair.  The values are exactly the
    intermediates of :func:`repro.htm.geometry.angular_separation` —
    ``math.radians`` of the stored degrees, ``math.cos`` / ``math.sin`` of
    that — so a separation computed from them is bit-equal.
    """

    htm_ids: List[int]
    #: ``radians(ra)``.
    lon: List[float]
    #: ``radians(dec)`` where ``-90 <= dec <= 90``, else NaN.  Read only by
    #: the kernel's declination-band reject, whose argument (separation >=
    #: |delta dec|) holds for in-range declinations only; a NaN row fails
    #: every comparison and so is never rejected by the band.
    band_lat: List[float]
    #: ``cos(radians(dec))`` / ``sin(radians(dec))``, any declination.
    cos_lat: List[float]
    sin_lat: List[float]


@dataclass(frozen=True)
class ColumnBlock:
    """One decoded bucket page as typed, whole-column sequences.

    This is the zero-copy evaluation currency of the storage subsystem:
    each attribute is a ``memoryview`` cast directly over the page bytes
    (on little-endian hosts) rather than a tuple of per-row objects, so
    decoding a page costs six buffer casts instead of one Python object
    per row.  Kernels in :mod:`repro.core.kernels` evaluate crossmatch
    work directly against these columns; :class:`~repro.catalog.objects.
    CelestialObject` rows are only materialised at the result boundary
    via :meth:`row` / :meth:`rows`.

    Two memos ride on the block, both empty after decode and both living
    exactly as long as the block does (so a block resident in either cache
    tier pays for them once): :meth:`rows` and :meth:`derived`.

    The columns keep the backing buffer (usually the reader's mmap)
    alive for as long as the block is referenced, so cached blocks stay
    valid even after the store that decoded them is closed.
    """

    #: HTM IDs, ascending (the on-disk order is the merge-join order).
    htm_ids: Sequence[int]
    object_ids: Sequence[int]
    ra: Sequence[float]
    dec: Sequence[float]
    magnitude: Sequence[float]
    survey_codes: Sequence[int]
    #: The file's survey dictionary (shared by every block of one store).
    surveys: Tuple[str, ...]
    _rows: List[Tuple["CelestialObject", ...]] = field(
        default_factory=list, repr=False, compare=False
    )
    _derived: List[DerivedColumns] = field(default_factory=list, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.htm_ids)

    @property
    def has_derived(self) -> bool:
        """Whether :meth:`derived` has been built (it never is at decode)."""
        return bool(self._derived)

    def derived(self) -> DerivedColumns:
        """The kernel's per-row columns (memoised; built on first request).

        The kernel asks only once a workload object has a non-empty
        candidate window, so a block that serves footprint-only entries
        never pays for this.
        """
        if not self._derived:
            lat = list(map(math.radians, self.dec))
            self._derived.append(
                DerivedColumns(
                    htm_ids=list(self.htm_ids),
                    lon=list(map(math.radians, self.ra)),
                    band_lat=[
                        value if -90.0 <= dec <= 90.0 else math.nan
                        for value, dec in zip(lat, self.dec)
                    ],
                    cos_lat=list(map(math.cos, lat)),
                    sin_lat=list(map(math.sin, lat)),
                )
            )
        return self._derived[0]

    def row(self, index: int) -> "CelestialObject":
        """Materialise one row object (the result-boundary escape hatch)."""
        return CelestialObject(
            object_id=self.object_ids[index],
            ra=self.ra[index],
            dec=self.dec[index],
            htm_id=self.htm_ids[index],
            magnitude=self.magnitude[index],
            survey=self.surveys[self.survey_codes[index]],
        )

    def rows(self) -> Tuple["CelestialObject", ...]:
        """Materialise every row (memoised: full scans share one tuple)."""
        if not self._rows:
            self._rows.append(tuple(self.row(i) for i in range(len(self))))
        return self._rows[0]


def decode_column_block(payload, surveys: Sequence[str]) -> ColumnBlock:
    """Decode one bucket page into a :class:`ColumnBlock` without copying.

    *payload* may be any buffer (a ``memoryview`` over the reader's mmap
    in the hot path).  Structural validation matches
    :func:`decode_bucket_page`: a malformed length or an out-of-range
    survey code raises :class:`StoreFormatError`.  Row order is enforced
    at encode time and page content is CRC-covered, so this fast path
    does not re-verify sortedness row by row — the strict
    :func:`decode_bucket_page` still does.
    """
    view = memoryview(payload)
    if len(view) < _PAGE_HEADER.size:
        raise StoreFormatError("bucket page shorter than its row-count header")
    (count,) = _PAGE_HEADER.unpack_from(view, 0)
    offset = _PAGE_HEADER.size
    expected = offset + count * (8 + 8 + 8 + 8 + 8 + 1)
    if len(view) != expected:
        raise StoreFormatError(
            f"bucket page length mismatch: {len(view)} bytes for {count} rows "
            f"(expected {expected})"
        )

    def column(fmt: str, width: int) -> Sequence:
        nonlocal offset
        end = offset + count * width
        chunk = view[offset:end]
        offset = end
        if _NATIVE_LITTLE_ENDIAN:
            return chunk.cast(fmt)
        return struct.unpack(f"<{count}{fmt}", chunk)  # pragma: no cover

    ids = column("Q", 8)
    object_ids = column("q", 8)
    ras = column("d", 8)
    decs = column("d", 8)
    magnitudes = column("d", 8)
    codes = column("B", 1)
    # bytes() of a 1-byte column is a C-speed copy; max() over it is the
    # cheap way to validate every survey code in one pass.
    if count and max(bytes(codes)) >= len(surveys):
        raise StoreFormatError(
            f"bucket page references unknown survey code {max(bytes(codes))}"
        )
    return ColumnBlock(
        htm_ids=ids,
        object_ids=object_ids,
        ra=ras,
        dec=decs,
        magnitude=magnitudes,
        survey_codes=codes,
        surveys=tuple(surveys),
    )


@dataclass(frozen=True)
class StoreManifest:
    """Summary of one written (or opened) bucket store file."""

    path: str
    generation: str
    leaf_level: int
    bucket_count: int
    total_objects: int
    total_rows: int
    file_bytes: int


def _crc(payload: bytes) -> int:
    return crc32(payload) & 0xFFFFFFFF


def encode_bucket_page(
    htm_ids_sorted: Sequence[int],
    rows: Sequence[CelestialObject],
    survey_codes: Dict[str, int],
) -> bytes:
    """Encode one bucket's rows as a columnar page (without its CRC).

    Columns are struct-packed arrays in a fixed order: HTM IDs, object
    IDs, RA, Dec, magnitude, survey dictionary codes.  The HTM column must
    already be sorted — the on-disk order *is* the merge-join order.
    """
    count = len(rows)
    if len(htm_ids_sorted) != count:
        raise ValueError("htm_ids and rows must be the same length")
    if any(htm_ids_sorted[i] > htm_ids_sorted[i + 1] for i in range(count - 1)):
        raise ValueError("bucket pages must be HTM-sorted")
    buffer = io.BytesIO()
    buffer.write(_PAGE_HEADER.pack(count))
    buffer.write(struct.pack(f"<{count}Q", *htm_ids_sorted))
    buffer.write(struct.pack(f"<{count}q", *(row.object_id for row in rows)))
    buffer.write(struct.pack(f"<{count}d", *(row.ra for row in rows)))
    buffer.write(struct.pack(f"<{count}d", *(row.dec for row in rows)))
    buffer.write(struct.pack(f"<{count}d", *(row.magnitude for row in rows)))
    codes = []
    for row in rows:
        if row.survey not in survey_codes:
            if len(survey_codes) >= 255:
                raise ValueError("a store file supports at most 255 distinct surveys")
            survey_codes[row.survey] = len(survey_codes)
        codes.append(survey_codes[row.survey])
    buffer.write(struct.pack(f"<{count}B", *codes))
    return buffer.getvalue()


def decode_bucket_page(
    payload: bytes, surveys: Sequence[str]
) -> Tuple[Tuple[int, ...], Tuple[CelestialObject, ...]]:
    """Decode one bucket page back into ``(htm_ids, rows)``.

    The inverse of :func:`encode_bucket_page`; raises
    :class:`StoreFormatError` on any structural mismatch.  This is the
    strict path: unlike :func:`decode_column_block` it re-verifies row
    order, and it always materialises the row objects.
    """
    block = decode_column_block(payload, surveys)
    ids = tuple(block.htm_ids)
    if any(ids[i] > ids[i + 1] for i in range(len(ids) - 1)):
        raise StoreFormatError("bucket page is not HTM-sorted")
    return ids, block.rows()


class BucketFileWriter:
    """Streams bucket pages to disk, then seals the directory and header.

    Usage: construct with the partition layout, call :meth:`append_bucket`
    once per bucket **in layout order**, then :meth:`finish`.  The writer
    streams pages as they arrive (memory stays bounded by one page) into a
    same-directory temp file, patches the header's directory offset last,
    and :meth:`finish` publishes the file with ``os.replace``.  A reader
    that has the old file mapped keeps its bytes (the new file is a new
    inode), and a crashed or aborted ingest leaves the destination as it was.
    """

    def __init__(self, path: str | os.PathLike, layout: PartitionLayout) -> None:
        self.path = os.fspath(path)
        self.layout = layout
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, self._temp_path = tempfile.mkstemp(dir=directory, suffix=".lrbs.tmp")
        self._handle: BinaryIO = os.fdopen(fd, "wb")
        self._entries: List[Tuple[BucketSpec, int, int, int]] = []
        self._survey_codes: Dict[str, int] = {}
        self._next_index = 0
        self._total_rows = 0
        # Header with a zero directory offset: patched by finish().
        self._handle.write(self._header_bytes(directory_offset=0))

    def _header_bytes(self, directory_offset: int) -> bytes:
        body = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            0,
            self.layout.leaf_level,
            len(self.layout),
            directory_offset,
            0,
        )[: -_CRC.size]
        return body + _CRC.pack(_crc(body))

    def append_bucket(
        self, htm_ids_sorted: Sequence[int], rows: Sequence[CelestialObject]
    ) -> None:
        """Write the next bucket's page (buckets must arrive in layout order)."""
        if self._next_index >= len(self.layout):
            raise ValueError("more bucket pages than layout buckets")
        spec = self.layout[self._next_index]
        # First/last containment suffices: encode_bucket_page enforces
        # sortedness, so the whole column lies inside the bucket's range.
        if htm_ids_sorted:
            for htm_id in (htm_ids_sorted[0], htm_ids_sorted[-1]):
                if htm_id not in spec.htm_range:
                    raise ValueError(
                        f"row HTM ID {htm_id} falls outside bucket {spec.index}'s range"
                    )
        page = encode_bucket_page(htm_ids_sorted, rows, self._survey_codes)
        self._append_page(spec, page, len(rows))

    def append_encoded(
        self, page: bytes, row_count: int, surveys: Sequence[str]
    ) -> None:
        """Write the next bucket's pre-encoded page (the parallel-ingest path).

        *surveys* is the code-ordered survey dictionary the encoder used
        (code *i* is ``surveys[i]``).  Encoders must assign codes the way
        this writer would have — first-seen order starting at an empty
        dictionary — so pages produced by independent workers assemble
        into a file byte-identical to a serial ingest; a disagreement
        raises rather than silently mislabelling rows.
        """
        if self._next_index >= len(self.layout):
            raise ValueError("more bucket pages than layout buckets")
        for survey in surveys:
            if survey not in self._survey_codes:
                if len(self._survey_codes) >= 255:
                    raise ValueError("a store file supports at most 255 distinct surveys")
                self._survey_codes[survey] = len(self._survey_codes)
        for code, survey in enumerate(surveys):
            if self._survey_codes[survey] != code:
                raise ValueError(
                    f"pre-encoded page assigns survey {survey!r} code {code}, "
                    f"but the store's dictionary says {self._survey_codes[survey]}"
                )
        self._append_page(self.layout[self._next_index], page, row_count)

    def _append_page(self, spec: BucketSpec, page: bytes, row_count: int) -> None:
        offset = self._handle.tell()
        self._handle.write(page)
        self._entries.append((spec, row_count, offset, len(page), _crc(page)))
        self._next_index += 1
        self._total_rows += row_count

    def finish(self) -> StoreManifest:
        """Write the directory, patch the header, and close the file."""
        if self._next_index != len(self.layout):
            raise ValueError(
                f"layout has {len(self.layout)} buckets but only "
                f"{self._next_index} pages were appended"
            )
        directory_offset = self._handle.tell()
        directory = io.BytesIO()
        for spec, row_count, offset, length, page_crc in self._entries:
            directory.write(
                _DIR_ENTRY.pack(
                    spec.htm_range.low,
                    spec.htm_range.high,
                    spec.object_count,
                    spec.megabytes,
                    row_count,
                    offset,
                    length,
                    page_crc,
                )
            )
        surveys = sorted(self._survey_codes, key=self._survey_codes.get)
        directory.write(struct.pack("<B", len(surveys)))
        for survey in surveys:
            encoded = survey.encode("utf-8")
            directory.write(struct.pack("<H", len(encoded)))
            directory.write(encoded)
        payload = directory.getvalue()
        self._handle.write(payload)
        self._handle.write(_CRC.pack(_crc(payload)))
        self._handle.seek(0)
        self._handle.write(self._header_bytes(directory_offset))
        self._handle.flush()
        file_bytes = os.fstat(self._handle.fileno()).st_size
        self._handle.close()
        os.replace(self._temp_path, self.path)
        return StoreManifest(
            path=self.path,
            generation=generation_of(payload),
            leaf_level=self.layout.leaf_level,
            bucket_count=len(self.layout),
            total_objects=self.layout.total_objects(),
            total_rows=self._total_rows,
            file_bytes=file_bytes,
        )

    def abort(self) -> None:
        """Close and remove the partial temp file; the destination is untouched."""
        try:
            self._handle.close()
        finally:
            if os.path.exists(self._temp_path):
                os.unlink(self._temp_path)


def generation_of(directory_payload: bytes) -> str:
    """The file generation: a digest of the directory bytes.

    Content-derived on purpose: re-ingesting identical data yields the
    same generation (cached decoded pages stay valid), while any change
    to the layout *or to any page* produces a new one — the directory
    embeds every page's CRC, so page content is covered without the
    reader having to scan the pages at open time.
    """
    return hashlib.sha256(directory_payload).hexdigest()[:16]


class BucketFileReader:
    """Random-access reader over one memory-mapped bucket store file.

    Opening maps the whole file read-only and validates the magic,
    version, header CRC and directory CRC, reconstructing the partition
    layout; :meth:`read_bucket_block` then performs one CRC pass over the
    mapped page plus six zero-copy column casts — no ``seek``/``read``
    syscalls and no per-row decoding.  Readers are cheap enough to open
    per process — worker children of the multiprocessing backend each
    own one.

    Decoded :class:`ColumnBlock`\\ s reference the map directly, so
    :meth:`close` only unmaps once the last cached block is gone (the
    mapping is held alive by the blocks' buffer exports until then).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        try:
            handle: BinaryIO = open(self.path, "rb")
        except OSError as error:
            raise StoreFormatError(f"cannot open bucket store {self.path!r}: {error}") from error
        try:
            self.file_bytes = os.fstat(handle.fileno()).st_size
            if self.file_bytes == 0:
                raise StoreFormatError(
                    f"truncated bucket store: expected {_HEADER.size} bytes of "
                    "file header, got 0"
                )
            # The map survives the descriptor: close the handle immediately.
            self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            handle.close()
        self._view = memoryview(self._mmap)
        self._closed = False
        try:
            self._load_metadata()
        except Exception:
            self.close()
            raise

    def _slice(self, offset: int, size: int, what: str) -> memoryview:
        """A bounds-checked window into the map (zero-copy)."""
        if offset + size > self.file_bytes:
            available = max(0, self.file_bytes - offset)
            raise StoreFormatError(
                f"truncated bucket store: expected {size} bytes of {what}, "
                f"got {available}"
            )
        return self._view[offset : offset + size]

    def _load_metadata(self) -> None:
        header = bytes(self._slice(0, _HEADER.size, "file header"))
        magic, version, _flags, leaf_level, bucket_count, directory_offset, header_crc = (
            _HEADER.unpack(header)
        )
        if magic != MAGIC:
            raise StoreFormatError(
                f"{self.path!r} is not a LifeRaft bucket store (bad magic {magic!r})"
            )
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"unsupported bucket store version {version} (reader supports {FORMAT_VERSION})"
            )
        if _crc(header[: -_CRC.size]) != header_crc:
            raise StoreFormatError(f"header checksum mismatch in {self.path!r}")
        if directory_offset == 0:
            raise StoreFormatError(
                f"{self.path!r} has no directory (ingest did not finish)"
            )
        file_size = self.file_bytes
        if directory_offset + _CRC.size > file_size:
            raise StoreFormatError(f"directory offset past end of file in {self.path!r}")
        payload = self._slice(
            directory_offset, file_size - directory_offset - _CRC.size, "page directory"
        )
        (directory_crc,) = _CRC.unpack(
            bytes(self._slice(file_size - _CRC.size, _CRC.size, "directory CRC"))
        )
        if _crc(payload) != directory_crc:
            raise StoreFormatError(f"directory checksum mismatch in {self.path!r}")
        self.generation = generation_of(payload)
        offset = 0
        specs: List[BucketSpec] = []
        # Per bucket: row_count, page offset, page length, page CRC.
        self._pages: List[Tuple[int, int, int, int]] = []
        for index in range(bucket_count):
            if offset + _DIR_ENTRY.size > len(payload):
                raise StoreFormatError(f"directory truncated at bucket {index}")
            low, high, object_count, megabytes, row_count, page_offset, page_length, page_crc = (
                _DIR_ENTRY.unpack_from(payload, offset)
            )
            offset += _DIR_ENTRY.size
            specs.append(BucketSpec(index, HTMRange(low, high), object_count, megabytes))
            if page_offset + page_length > directory_offset:
                raise StoreFormatError(
                    f"bucket {index}'s page extends past the directory"
                )
            self._pages.append((row_count, page_offset, page_length, page_crc))
        if offset + 1 > len(payload):
            raise StoreFormatError("directory is missing its survey dictionary")
        (survey_count,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        surveys: List[str] = []
        for _ in range(survey_count):
            if offset + 2 > len(payload):
                raise StoreFormatError("survey dictionary truncated")
            (name_length,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            if offset + name_length > len(payload):
                raise StoreFormatError("survey dictionary truncated")
            surveys.append(bytes(payload[offset : offset + name_length]).decode("utf-8"))
            offset += name_length
        self.surveys: Tuple[str, ...] = tuple(surveys)
        try:
            self.layout = PartitionLayout(specs, leaf_level)
        except ValueError as error:
            raise StoreFormatError(f"invalid partition layout in {self.path!r}: {error}") from error
        self.total_rows = sum(row_count for row_count, _, _, _ in self._pages)

    def __len__(self) -> int:
        return len(self._pages)

    def row_count(self, bucket_index: int) -> int:
        """Number of physical rows materialised for bucket *bucket_index*."""
        return self._pages[bucket_index][0]

    def _page_payload(self, bucket_index: int) -> memoryview:
        """CRC-checked zero-copy window over one bucket page."""
        if not 0 <= bucket_index < len(self._pages):
            raise IndexError(f"bucket {bucket_index} outside the store's layout")
        _row_count, page_offset, page_length, page_crc = self._pages[bucket_index]
        payload = self._slice(page_offset, page_length, f"bucket {bucket_index} page")
        if _crc(payload) != page_crc:
            raise StoreFormatError(
                f"bucket {bucket_index} page checksum mismatch in {self.path!r}"
            )
        return payload

    def read_bucket_block(self, bucket_index: int) -> ColumnBlock:
        """CRC-check and decode one bucket page into a zero-copy block.

        This is the hot path: the block's columns are casts over the mmap,
        so no bytes are copied and no row objects are built.
        """
        return decode_column_block(self._page_payload(bucket_index), self.surveys)

    def read_bucket(
        self, bucket_index: int
    ) -> Tuple[Tuple[int, ...], Tuple[CelestialObject, ...]]:
        """CRC-check and strictly decode one bucket page into row objects."""
        return decode_bucket_page(self._page_payload(bucket_index), self.surveys)

    def manifest(self) -> StoreManifest:
        """Describe the opened file (mirrors the writer's return value)."""
        return StoreManifest(
            path=self.path,
            generation=self.generation,
            leaf_level=self.layout.leaf_level,
            bucket_count=len(self.layout),
            total_objects=self.layout.total_objects(),
            total_rows=self.total_rows,
            file_bytes=self.file_bytes,
        )

    def close(self) -> None:
        """Release the mapping (deferred while decoded blocks still use it).

        Column casts handed out by :meth:`read_bucket_block` export the
        map's buffer; closing the map under them would invalidate cached
        blocks, so when exports exist the unmap is left to garbage
        collection of the last block.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._view.release()
            self._mmap.close()
        except (BufferError, ValueError):
            pass

    def __enter__(self) -> "BucketFileReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_layout(path: str | os.PathLike) -> PartitionLayout:
    """Read only the partition layout of a store file (metadata, no pages)."""
    with BucketFileReader(path) as reader:
        return reader.layout


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "STORE_SUFFIX",
    "StoreFormatError",
    "StoreManifest",
    "ColumnBlock",
    "DerivedColumns",
    "BucketFileWriter",
    "BucketFileReader",
    "encode_bucket_page",
    "decode_bucket_page",
    "decode_column_block",
    "generation_of",
    "read_layout",
]
