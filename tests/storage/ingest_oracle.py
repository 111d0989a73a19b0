"""The density-ingest row path ``repro.storage`` replaced, kept as its oracle.

:func:`synthesize_bucket_rows` and :func:`encode_bucket_page` below are the
old bodies verbatim: one frozen :class:`CelestialObject` per synthetic row,
then six generator expressions pulling the columns back out of those rows.
The live ingest synthesises each bucket's columns directly and packs them
with :func:`repro.storage.format.encode_columns`; every page it writes must
be byte-equal to ``encode_bucket_page(ids, synthesize_bucket_rows(...), {})``.
"""

import io
import struct
from typing import Dict, Sequence

from repro.catalog.objects import CelestialObject
from repro.storage.format import _PAGE_HEADER
from repro.storage.partitioner import BucketSpec


def synthesize_bucket_rows(
    spec: BucketSpec, rows: int, survey: str = "synthetic", seed: int = 0
) -> list[CelestialObject]:
    """Deterministic physical rows for one count-only bucket.

    HTM IDs are spread evenly over the bucket's curve range (ascending, so
    pages stay merge-join ready); positions and magnitudes are cheap
    arithmetic functions of the ID and the seed.  The rows exist to give
    file-backed runs real bytes to move and decode — the scaled workload
    never inspects them (its queries carry count footprints, not objects).
    """
    if rows < 0:
        raise ValueError("rows must be non-negative")
    low, high = spec.htm_range.low, spec.htm_range.high
    span = high - low + 1
    result = []
    for i in range(rows):
        htm_id = low + (i * span) // max(rows, 1)
        mix = (htm_id * 2654435761 + seed * 97 + i) & 0xFFFFFFFF
        result.append(
            CelestialObject(
                # Bucket-scoped base keeps IDs unique across buckets even
                # when row counts vary per bucket (partial final buckets).
                object_id=(spec.index << 32) | i,
                ra=(mix % 3_600_000) / 10_000.0,
                dec=((mix >> 12) % 1_600_000) / 10_000.0 - 80.0,
                htm_id=htm_id,
                magnitude=14.0 + (mix % 8_000) / 1_000.0,
                survey=survey,
            )
        )
    return result


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


def density_page(spec: BucketSpec, rows: int, seed: int = 0) -> bytes:
    """The page the old density ingest wrote for *spec* (its encode step)."""
    objects = synthesize_bucket_rows(spec, rows, seed=seed)
    return encode_bucket_page([row.htm_id for row in objects], objects, {})
